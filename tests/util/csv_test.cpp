#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace sssp::util {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// One file per test: ctest runs each test as its own process, in
// parallel, so a shared path lets one test's writer or TearDown empty
// the file another test is about to read.
class CsvWriterTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ =
      ::testing::TempDir() + "csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
};

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_);
    csv.write_header({"a", "b"});
    csv.write(1, 2.5);
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  EXPECT_EQ(read_file(path_), "a,b\n1,2.5\n");
}

TEST_F(CsvWriterTest, QuotesCellsWithCommasAndQuotes) {
  {
    CsvWriter csv(path_);
    csv.write_row({"hello, world", "say \"hi\""});
  }
  EXPECT_EQ(read_file(path_), "\"hello, world\",\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvWriterTest, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), std::runtime_error);
}

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.set_header({"name", "value"});
  t.add("x", 1);
  t.add("longer", 22);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(s.find("----"), std::string::npos);
  // Every row ends with newline.
  EXPECT_EQ(s.back(), '\n');
}

TEST(TextTable, WorksWithoutHeader) {
  TextTable t;
  t.add(1, 2, 3);
  const std::string s = t.to_string();
  EXPECT_EQ(s.find("----"), std::string::npos);
  EXPECT_NE(s.find('1'), std::string::npos);
}

}  // namespace
}  // namespace sssp::util
