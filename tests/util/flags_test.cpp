#include "util/flags.hpp"

#include <gtest/gtest.h>

namespace sssp::util {
namespace {

Flags make_flags(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  auto f = make_flags({"--delta=32"});
  f.define("delta", "1", "delta value");
  EXPECT_EQ(f.get_int("delta"), 32);
}

TEST(Flags, SpaceSyntax) {
  auto f = make_flags({"--name", "wiki"});
  f.define("name", "", "dataset");
  EXPECT_EQ(f.get_string("name"), "wiki");
}

TEST(Flags, BooleanForms) {
  auto f = make_flags({"--fast", "--no-verbose"});
  f.define("fast", "false", "");
  f.define("verbose", "true", "");
  EXPECT_TRUE(f.get_bool("fast"));
  EXPECT_FALSE(f.get_bool("verbose"));
}

TEST(Flags, DefaultsApplyWhenAbsent) {
  auto f = make_flags({});
  f.define("p", "20000", "set-point");
  EXPECT_EQ(f.get_int("p"), 20000);
  EXPECT_FALSE(f.has("p"));
}

TEST(Flags, UndefinedFlagThrows) {
  auto f = make_flags({});
  EXPECT_THROW(f.get_string("nope"), std::invalid_argument);
}

TEST(Flags, MalformedNumberThrows) {
  auto f = make_flags({"--n=12x"});
  f.define("n", "0", "");
  EXPECT_THROW(f.get_int("n"), std::invalid_argument);
  auto g = make_flags({"--x=1.2.3"});
  g.define("x", "0", "");
  EXPECT_THROW(g.get_double("x"), std::invalid_argument);
}

TEST(Flags, MalformedBoolThrows) {
  auto f = make_flags({"--b=maybe"});
  f.define("b", "false", "");
  EXPECT_THROW(f.get_bool("b"), std::invalid_argument);
}

TEST(Flags, PositionalArguments) {
  auto f = make_flags({"input.gr", "--k=3", "more"});
  f.define("k", "0", "");
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.gr");
  EXPECT_EQ(f.positional()[1], "more");
}

TEST(Flags, DoubleDashTerminatesFlags) {
  auto f = make_flags({"--", "--not-a-flag"});
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "--not-a-flag");
}

TEST(Flags, CheckUnknownCatchesTypos) {
  auto f = make_flags({"--detla=32"});
  f.define("delta", "1", "");
  EXPECT_THROW(f.check_unknown(), std::invalid_argument);
}

TEST(Flags, CheckUnknownPassesForDefinedFlags) {
  auto f = make_flags({"--delta=32"});
  f.define("delta", "1", "");
  EXPECT_NO_THROW(f.check_unknown());
}

TEST(Flags, DoubleParsing) {
  auto f = make_flags({"--scale=0.125"});
  f.define("scale", "1.0", "");
  EXPECT_DOUBLE_EQ(f.get_double("scale"), 0.125);
}

TEST(Flags, ParseUnsignedTakesDigitsOnly) {
  EXPECT_EQ(parse_unsigned("threads-list", "4", 64), 4u);
  EXPECT_EQ(parse_unsigned("threads-list", "0", 64), 0u);
  EXPECT_EQ(parse_unsigned("dvfs", "4294967295", 4294967295u), 4294967295u);
  for (const char* bad : {"-1", "4x", "", "abc", " 4", "+4"})
    EXPECT_THROW(parse_unsigned("threads-list", bad, 64), FlagError)
        << "'" << bad << "'";
  EXPECT_THROW(parse_unsigned("dvfs", "4294967296", 4294967295u), FlagError);
  EXPECT_THROW(parse_unsigned("dvfs", "99999999999999999999", UINT64_MAX),
               FlagError);
}

}  // namespace
}  // namespace sssp::util
