// Mutation-style corruption drills (the ISSUE's "flip one entry"
// acceptance): corrupt a single dist/parent/boundary value in an
// otherwise healthy run and prove the safety net notices — the
// certifier for end-state corruption, the online auditor for in-flight
// corruption.
#include <gtest/gtest.h>

#include <vector>

#include "core/self_tuning.hpp"
#include "fault/failpoint.hpp"
#include "sssp/dijkstra.hpp"
#include "tests/sssp/test_graphs.hpp"
#include "util/thread_pool.hpp"
#include "verify/auditor.hpp"
#include "verify/certifier.hpp"

namespace sssp::verify {
namespace {

core::SelfTuningOptions tuning_options() {
  core::SelfTuningOptions options;
  options.set_point = 500.0;
  options.measure_controller_time = false;
  return options;
}

class MutationTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    util::ThreadPool::set_global_threads(GetParam());
  }
  void TearDown() override {
    fault::FailpointRegistry::global().disarm_all();
    util::ThreadPool::set_global_threads(0);
  }
};

TEST_P(MutationTest, CleanSelfTuningRunCertifies) {
  const auto g = algo::testing::random_graph(2048, 6.0, 100, 21);
  const auto result = core::self_tuning_sssp(g, 0, tuning_options());
  const Certificate cert = certify(g, result);
  EXPECT_TRUE(cert.certified) << cert.summary();
}

TEST_P(MutationTest, CertifierCatchesEverySingleDistanceFlip) {
  const auto g = algo::testing::random_graph(1024, 5.0, 64, 22);
  const auto clean = core::self_tuning_sssp(g, 0, tuning_options());
  // Flip the low bit of one reached non-source label at a time: each
  // single-bit mutation must fail certification (distances are unique
  // shortest values, so any change breaks edge or parent tightness).
  int mutated = 0;
  for (graph::VertexId v = 1; v < g.num_vertices() && mutated < 16; ++v) {
    if (clean.distances[v] == graph::kInfiniteDistance) continue;
    auto corrupt = clean;
    corrupt.distances[v] ^= 1;
    const Certificate cert = certify(g, corrupt);
    EXPECT_FALSE(cert.certified) << "undetected flip at v=" << v;
    EXPECT_GT(cert.violations, 0u);
    ++mutated;
  }
  EXPECT_EQ(mutated, 16);
}

TEST_P(MutationTest, CertifierCatchesParentFlips) {
  const auto g = algo::testing::random_graph(1024, 5.0, 64, 23);
  const auto clean = core::self_tuning_sssp(g, 0, tuning_options());
  ASSERT_FALSE(clean.parents.empty());
  int mutated = 0;
  int detected = 0;
  for (graph::VertexId v = 1; v < g.num_vertices() && mutated < 16; ++v) {
    if (clean.distances[v] == graph::kInfiniteDistance) continue;
    if (clean.parents[v] == graph::kInvalidVertex) continue;
    auto corrupt = clean;
    corrupt.parents[v] ^= 1;
    if (corrupt.parents[v] >= g.num_vertices()) continue;
    ++mutated;
    if (!certify(g, corrupt).certified) ++detected;
  }
  // A flipped parent can coincidentally name another tight predecessor
  // (equal-length path); all other flips must be caught.
  EXPECT_GE(mutated, 8);
  EXPECT_GE(detected, mutated - 2)
      << "too many parent flips went undetected";
}

TEST_P(MutationTest, AuditorCatchesBoundaryCorruptionInFlight) {
  const auto g = algo::testing::random_graph(2048, 6.0, 100, 24);
  fault::FailpointRegistry::global().arm("far.boundary.corrupt=0.2,5");
  auto options = tuning_options();
  options.audit_every = 1;  // quarantine mode: keep running
  const auto result = core::self_tuning_sssp(g, 0, options);
  fault::FailpointRegistry::global().disarm_all();
  EXPECT_GT(result.audits_run, 0u);
  // The injected Eq. 7 corruption must be visible to A2...
  EXPECT_GT(result.audit_violations, 0u);
  // ...and must have quarantined the controller at least once.
  EXPECT_GT(result.controller_degradations, 0u);
  // Quarantine is containment, not abort: distances stay exact.
  const Certificate cert = certify(g, result);
  EXPECT_TRUE(cert.certified) << cert.summary();
  EXPECT_EQ(algo::count_distance_mismatches(result.distances,
                                            algo::dijkstra_distances(g, 0)),
            0u);
}

TEST_P(MutationTest, AuditAbortThrowsAtIterationBoundary) {
  const auto g = algo::testing::random_graph(2048, 6.0, 100, 25);
  fault::FailpointRegistry::global().arm("far.boundary.corrupt=0.5,5");
  auto options = tuning_options();
  options.audit_every = 1;
  options.audit_abort = true;
  EXPECT_THROW(core::self_tuning_sssp(g, 0, options), AuditViolation);
}

TEST_P(MutationTest, AuditorStaysQuietOnHealthyRuns) {
  const auto g = algo::testing::random_graph(2048, 6.0, 100, 26);
  auto options = tuning_options();
  options.audit_every = 1;
  const auto result = core::self_tuning_sssp(g, 0, options);
  EXPECT_GT(result.audits_run, 0u);
  EXPECT_EQ(result.audit_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, MutationTest, ::testing::Values(1, 4),
                         [](const auto& param_info) {
                           return "threads" +
                                  std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace sssp::verify
