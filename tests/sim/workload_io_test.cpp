#include "sim/workload_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace sssp::sim {
namespace {

RunWorkload sample_workload() {
  RunWorkload w;
  w.algorithm = "self-tuning";
  w.dataset = "Cal";
  for (std::uint64_t i = 1; i <= 5; ++i) {
    IterationWork it;
    it.x1 = i;
    it.x2 = 4 * i;
    it.x3 = 2 * i;
    it.x4 = i;
    it.edges_relaxed = 4 * i;
    it.rebalance_items = i / 2;
    it.far_queue_size = 10 * i;
    it.controller_seconds = 1e-6 * static_cast<double>(i);
    w.iterations.push_back(it);
  }
  return w;
}

TEST(WorkloadIo, RoundTrip) {
  const RunWorkload original = sample_workload();
  std::stringstream buffer;
  save_workload_csv(original, buffer);
  const RunWorkload loaded = load_workload_csv(buffer);
  EXPECT_EQ(loaded.algorithm, original.algorithm);
  EXPECT_EQ(loaded.dataset, original.dataset);
  ASSERT_EQ(loaded.iterations.size(), original.iterations.size());
  for (std::size_t i = 0; i < original.iterations.size(); ++i) {
    const auto& a = loaded.iterations[i];
    const auto& b = original.iterations[i];
    EXPECT_EQ(a.x1, b.x1);
    EXPECT_EQ(a.x2, b.x2);
    EXPECT_EQ(a.x3, b.x3);
    EXPECT_EQ(a.x4, b.x4);
    EXPECT_EQ(a.edges_relaxed, b.edges_relaxed);
    EXPECT_EQ(a.rebalance_items, b.rebalance_items);
    EXPECT_EQ(a.far_queue_size, b.far_queue_size);
    EXPECT_DOUBLE_EQ(a.controller_seconds, b.controller_seconds);
  }
  EXPECT_EQ(loaded.total_edges_relaxed(), original.total_edges_relaxed());
}

TEST(WorkloadIo, EmptyWorkloadRoundTrips) {
  RunWorkload w;
  w.algorithm.assign(1, 'x');
  w.dataset.assign(1, 'y');
  std::stringstream buffer;
  save_workload_csv(w, buffer);
  const RunWorkload loaded = load_workload_csv(buffer);
  EXPECT_TRUE(loaded.iterations.empty());
}

TEST(WorkloadIo, RejectsWrongHeader) {
  std::istringstream in("nope,nope\n1,2\n");
  EXPECT_THROW(load_workload_csv(in), std::runtime_error);
}

TEST(WorkloadIo, RejectsShortRow) {
  std::stringstream buffer;
  save_workload_csv(sample_workload(), buffer);
  std::string text = buffer.str();
  text += "self-tuning,Cal,1,2\n";  // truncated row appended
  std::istringstream in(text);
  EXPECT_THROW(load_workload_csv(in), std::runtime_error);
}

TEST(WorkloadIo, RejectsBadInteger) {
  std::stringstream buffer;
  save_workload_csv(RunWorkload{"a", "b", {}}, buffer);
  std::string text = buffer.str();
  text += "a,b,x,2,3,4,5,6,7,0.1\n";
  std::istringstream in(text);
  EXPECT_THROW(load_workload_csv(in), std::runtime_error);
}

TEST(WorkloadIo, MissingFileThrows) {
  EXPECT_THROW(load_workload_csv_file("/nonexistent/w.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace sssp::sim
