#include "fault/failpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace sssp::fault {
namespace {

// Every test leaves the global gate off so suites sharing the process
// never see each other's armed failpoints.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::global().disarm_all(); }
};

TEST_F(FailpointTest, DisarmedByDefault) {
  EXPECT_FALSE(faults_enabled());
  for (int i = 0; i < 10; ++i)
    EXPECT_FALSE(SSSP_FAILPOINT("test.disarmed"));
  // Disarmed sites do not count hits (they must cost nothing).
  EXPECT_EQ(FailpointRegistry::global().failpoint("test.disarmed").hits(), 0u);
}

TEST_F(FailpointTest, AlwaysModeFiresEveryHit) {
  FailpointRegistry::global().arm("test.always");
  EXPECT_TRUE(faults_enabled());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(SSSP_FAILPOINT("test.always"));
  const Failpoint& fp = FailpointRegistry::global().failpoint("test.always");
  EXPECT_EQ(fp.hits(), 5u);
  EXPECT_EQ(fp.fires(), 5u);
}

TEST_F(FailpointTest, DisarmAllTurnsGateOffAndKeepsCounters) {
  FailpointRegistry::global().arm("test.gate");
  EXPECT_TRUE(SSSP_FAILPOINT("test.gate"));
  FailpointRegistry::global().disarm_all();
  EXPECT_FALSE(faults_enabled());
  EXPECT_FALSE(SSSP_FAILPOINT("test.gate"));
  EXPECT_EQ(FailpointRegistry::global().failpoint("test.gate").fires(), 1u);
}

TEST_F(FailpointTest, EveryNthModeFiresOnMultiples) {
  FailpointRegistry::global().arm("test.nth=3");
  std::vector<int> fired;
  for (int i = 1; i <= 9; ++i)
    if (SSSP_FAILPOINT("test.nth")) fired.push_back(i);
  EXPECT_EQ(fired, (std::vector<int>{3, 6, 9}));
}

TEST_F(FailpointTest, ReArmingRestartsTheEveryNthCount) {
  FailpointRegistry::global().arm("test.rearm=3");
  EXPECT_FALSE(SSSP_FAILPOINT("test.rearm"));
  EXPECT_FALSE(SSSP_FAILPOINT("test.rearm"));
  FailpointRegistry::global().arm("test.rearm=3");
  std::vector<int> fired;
  for (int i = 1; i <= 6; ++i)
    if (SSSP_FAILPOINT("test.rearm")) fired.push_back(i);
  EXPECT_EQ(fired, (std::vector<int>{3, 6}));
}

TEST_F(FailpointTest, ProbabilityModeIsDeterministicPerSeed) {
  auto run = [](const char* spec) {
    FailpointRegistry::global().disarm_all();
    FailpointRegistry::global().arm(spec);
    Failpoint& fp = FailpointRegistry::global().failpoint("test.prob");
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) pattern.push_back(fp.should_fire());
    return pattern;
  };
  const auto a = run("test.prob=0.5,42");
  const auto b = run("test.prob=0.5,42");
  const auto c = run("test.prob=0.5,43");
  EXPECT_EQ(a, b);  // same (spec, seed) -> same fire pattern
  EXPECT_NE(a, c);  // a different seed draws a different stream

  // A fair-ish coin: both outcomes occur in 64 draws.
  const auto fires = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 0u);
  EXPECT_LT(fires, a.size());
}

TEST_F(FailpointTest, ProbabilityZeroNeverFiresOneAlwaysFires) {
  FailpointRegistry::global().arm("test.p0=0.0");
  FailpointRegistry::global().arm("test.p1=1.0");
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(SSSP_FAILPOINT("test.p0"));
    EXPECT_TRUE(SSSP_FAILPOINT("test.p1"));
  }
}

TEST_F(FailpointTest, ArmListArmsEverySegment) {
  FailpointRegistry::global().arm_list("test.a;test.b=2;;test.c=0.5,7");
  EXPECT_TRUE(SSSP_FAILPOINT("test.a"));
  const auto status = FailpointRegistry::global().status();
  int armed = 0;
  for (const auto& fp : status)
    if (fp.mode != Failpoint::Mode::kDisarmed) ++armed;
  EXPECT_GE(armed, 3);
}

TEST_F(FailpointTest, MalformedSpecsThrow) {
  auto& registry = FailpointRegistry::global();
  EXPECT_THROW(registry.arm(""), std::invalid_argument);
  EXPECT_THROW(registry.arm("name="), std::invalid_argument);
  EXPECT_THROW(registry.arm("name=abc"), std::invalid_argument);
  EXPECT_THROW(registry.arm("name=1.5"), std::invalid_argument);  // p > 1
  EXPECT_THROW(registry.arm("name=-0.5"), std::invalid_argument);
  EXPECT_THROW(registry.arm("name=0"), std::invalid_argument);  // period 0
  EXPECT_THROW(registry.arm("name=0.5,"), std::invalid_argument);
  EXPECT_THROW(registry.arm("name=0.5,xyz"), std::invalid_argument);
}

TEST_F(FailpointTest, ArmFromEnvReadsSsspFailpoint) {
  ASSERT_EQ(setenv("SSSP_FAILPOINT", "test.env=2", 1), 0);
  FailpointRegistry::global().arm_from_env();
  unsetenv("SSSP_FAILPOINT");
  EXPECT_TRUE(faults_enabled());
  EXPECT_FALSE(SSSP_FAILPOINT("test.env"));  // hit 1
  EXPECT_TRUE(SSSP_FAILPOINT("test.env"));   // hit 2
}

TEST_F(FailpointTest, RegistryReferencesAreStable) {
  Failpoint& first = FailpointRegistry::global().failpoint("test.stable");
  for (int i = 0; i < 100; ++i)
    FailpointRegistry::global().failpoint("test.churn." + std::to_string(i));
  EXPECT_EQ(&FailpointRegistry::global().failpoint("test.stable"), &first);
}

TEST_F(FailpointTest, TotalFiresAggregatesAcrossFailpoints) {
  FailpointRegistry::global().arm("test.agg1");
  FailpointRegistry::global().arm("test.agg2");
  // Read after arming, which restarts both sites' fire counts.
  const std::uint64_t before = FailpointRegistry::global().total_fires();
  (void)SSSP_FAILPOINT("test.agg1");
  (void)SSSP_FAILPOINT("test.agg2");
  (void)SSSP_FAILPOINT("test.agg2");
  EXPECT_EQ(FailpointRegistry::global().total_fires(), before + 3);
}

}  // namespace
}  // namespace sssp::fault
