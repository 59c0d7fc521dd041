// Randomized property tests ("fuzz"):
//
// 1. The near-far engine produces exact Dijkstra distances under ANY
//    threshold policy — including adversarial random walks that demote,
//    re-pull, and jump erratically. This is the invariant that makes
//    the whole self-tuning design safe (DESIGN.md Section 5).
//
// 2. The partitioned far queue is observably equivalent to a flat
//    vector model under random push/pull interleavings: the same
//    vertices come out for the same thresholds, regardless of boundary
//    maintenance.
// 3. Control-plane fault injection: with failpoints feeding NaN/Inf
//    into the controller's models and stats pipeline, the self-tuning
//    solver still produces exact Dijkstra distances (the engine
//    invariant above makes the control plane non-critical for
//    correctness) and the self-healing monitor records the
//    degradation (docs/ROBUSTNESS.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/self_tuning.hpp"
#include "fault/failpoint.hpp"
#include "frontier/engine.hpp"
#include "frontier/far_queue.hpp"
#include "sssp/dijkstra.hpp"
#include "tests/sssp/test_graphs.hpp"
#include "util/rng.hpp"

namespace sssp {
namespace {

using graph::Distance;
using graph::kInfiniteDistance;
using graph::VertexId;

class RandomPolicyFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPolicyFuzz, EngineExactUnderAdversarialThresholds) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed);
  const auto g = algo::testing::random_graph(
      400 + rng.next_below(800), 1.0 + 6.0 * rng.next_double(), 99, seed);
  const auto source = static_cast<VertexId>(rng.next_below(g.num_vertices()));
  const auto expected = algo::dijkstra_distances(g, source);

  frontier::NearFarEngine engine(g, source);
  frontier::FarQueue far(kInfiniteDistance);
  std::vector<VertexId> refill;
  Distance threshold = 1 + rng.next_below(50);

  std::size_t guard = 0;
  const std::size_t guard_limit = 50 * g.num_vertices() + 1000;
  while (!engine.frontier_empty() && ++guard < guard_limit) {
    engine.advance_and_filter();

    // Adversarial threshold move: grow, shrink, or jump randomly.
    switch (rng.next_below(4)) {
      case 0:  // multiplicative growth
        threshold = threshold + 1 + threshold / 2;
        break;
      case 1:  // harsh shrink
        threshold = std::max<Distance>(1, threshold / 3);
        break;
      case 2:  // random jump within the plausible distance range
        threshold = 1 + rng.next_below(100 * 100);
        break;
      default:  // hold
        break;
    }

    engine.bisect(threshold);
    for (const VertexId v : engine.spill()) far.push(v, engine.distance(v));
    engine.clear_spill();

    // Occasionally demote even further after bisect.
    if (rng.next_below(3) == 0) {
      const Distance demote_to = std::max<Distance>(1, threshold / 2);
      engine.demote(demote_to);
      for (const VertexId v : engine.spill()) far.push(v, engine.distance(v));
      engine.clear_spill();
    }

    // Forced progress, as all algorithms implement it.
    if (engine.frontier_empty() && !far.empty()) {
      const Distance next_live = far.min_live_distance(engine.distances());
      if (next_live == kInfiniteDistance) {
        far.clear();
      } else {
        threshold = std::max(threshold, next_live + 1 + rng.next_below(200));
        refill.clear();
        far.pull_below(threshold, engine.distances(), refill);
        engine.inject(refill);
      }
    }
  }
  ASSERT_LT(guard, guard_limit) << "policy failed to terminate";
  EXPECT_EQ(algo::count_distance_mismatches(engine.distances(), expected), 0u)
      << "seed " << seed;
}

// The oracle for the partitioned queue: a flat vector of entries that
// every pull scans in full, dropping stale ones.
struct FlatQueueModel {
  std::vector<frontier::FarEntry> entries;

  void push(VertexId v, Distance d) { entries.push_back({v, d}); }

  std::vector<VertexId> pull_below(Distance threshold,
                                   const std::vector<Distance>& dist) {
    std::vector<VertexId> pulled;
    std::size_t keep = 0;
    for (const frontier::FarEntry& entry : entries) {
      if (dist[entry.vertex] != entry.distance) continue;  // stale
      if (entry.distance < threshold) {
        pulled.push_back(entry.vertex);
      } else {
        entries[keep++] = entry;
      }
    }
    entries.resize(keep);
    return pulled;
  }
};

TEST_P(RandomPolicyFuzz, PartitionedQueueMatchesFlatQueue) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed ^ 0xABCD);

  const std::size_t n = 2000;
  // Distances evolve downward over time, creating stale entries in both
  // structures identically.
  std::vector<Distance> dist(n);
  for (auto& d : dist) d = 100 + rng.next_below(100000);

  frontier::FarQueue partitioned(1 + rng.next_below(5000));
  FlatQueueModel flat;

  for (int round = 0; round < 200; ++round) {
    const auto op = rng.next_below(10);
    if (op < 5) {  // push a batch
      for (int i = 0; i < 20; ++i) {
        const auto v = static_cast<VertexId>(rng.next_below(n));
        partitioned.push(v, dist[v]);
        flat.push(v, dist[v]);
      }
    } else if (op < 7) {  // improve some distances (stale-ify entries)
      for (int i = 0; i < 10; ++i) {
        const auto v = static_cast<VertexId>(rng.next_below(n));
        if (dist[v] > 1) dist[v] -= 1 + rng.next_below(dist[v] - 1);
      }
    } else if (op < 9) {  // pull below a random threshold
      const Distance threshold = 1 + rng.next_below(120000);
      std::vector<VertexId> from_partitioned;
      partitioned.pull_below(threshold, dist, from_partitioned);
      std::vector<VertexId> from_flat = flat.pull_below(threshold, dist);
      std::sort(from_partitioned.begin(), from_partitioned.end());
      std::sort(from_flat.begin(), from_flat.end());
      EXPECT_EQ(from_partitioned, from_flat) << "round " << round;
      partitioned.check_invariants();
    } else {  // boundary maintenance (must not change observable content)
      partitioned.update_boundary(1.0 + rng.next_below(5000),
                                  0.001 + rng.next_double() * 10.0);
      partitioned.check_invariants();
    }
  }

  // Final drain: identical live content.
  std::vector<VertexId> from_partitioned;
  partitioned.pull_below(kInfiniteDistance, dist, from_partitioned);
  std::vector<VertexId> from_flat = flat.pull_below(kInfiniteDistance, dist);
  std::sort(from_partitioned.begin(), from_partitioned.end());
  std::sort(from_flat.begin(), from_flat.end());
  EXPECT_EQ(from_partitioned, from_flat);
  EXPECT_TRUE(partitioned.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPolicyFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- control-plane fault injection ---

class ControlPlaneFaultInjection
    : public ::testing::TestWithParam<const char*> {
 protected:
  // Failpoints are process-global; never leak an armed one into the
  // suites that share this binary.
  void TearDown() override { fault::FailpointRegistry::global().disarm_all(); }
};

TEST_P(ControlPlaneFaultInjection, DistancesExactUnderInjectedFaults) {
  const auto g = algo::testing::random_graph(900, 5.0, 99, 1234);
  const graph::VertexId source = 3;
  const auto expected = algo::dijkstra_distances(g, source);

  fault::FailpointRegistry::global().arm(GetParam());
  core::SelfTuningOptions options;
  options.set_point = 500.0;
  const auto result = core::self_tuning_sssp(g, source, options);
  const std::uint64_t fires = fault::FailpointRegistry::global().total_fires();
  fault::FailpointRegistry::global().disarm_all();

  EXPECT_GT(fires, 0u) << "failpoint never fired: " << GetParam();
  EXPECT_EQ(algo::count_distance_mismatches(result.distances, expected), 0u)
      << "spec " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Failpoints, ControlPlaneFaultInjection,
    ::testing::Values("controller.x4.nan",        // every plan suppressed
                      "controller.far.nan",       // Inf far-queue stats
                      "controller.observe.nan",   // poisoned ADVANCE input
                      "sgd.observe.nan",          // poisoned inside the SGD
                      "controller.x4.nan=0.4,7",  // intermittent corruption
                      "sgd.observe.nan=3"));      // every 3rd observation

TEST(ControlPlaneFaultInjection2, SustainedGarbageDegradesAndIsRecorded) {
  const auto g = algo::testing::random_graph(900, 5.0, 99, 1234);
  const graph::VertexId source = 3;
  const auto expected = algo::dijkstra_distances(g, source);

  fault::FailpointRegistry::global().arm("controller.x4.nan");
  core::SelfTuningOptions options;
  options.set_point = 500.0;
  const auto result = core::self_tuning_sssp(g, source, options);
  fault::FailpointRegistry::global().disarm_all();

  ASSERT_EQ(algo::count_distance_mismatches(result.distances, expected), 0u);
  // The health monitor saw the garbage, degraded once (the stream never
  // goes clean, so no recovery), and the per-iteration flag marks the
  // degraded tail of the run.
  EXPECT_GT(result.controller_rejected_inputs, 0u);
  EXPECT_EQ(result.controller_degradations, 1u);
  EXPECT_EQ(result.controller_recoveries, 0u);
  EXPECT_TRUE(result.iterations.back().controller_degraded);
  EXPECT_FALSE(result.iterations.front().controller_degraded);
}

TEST(ControlPlaneFaultInjection2, CleanRunStaysAdaptive) {
  const auto g = algo::testing::random_graph(900, 5.0, 99, 1234);
  core::SelfTuningOptions options;
  options.set_point = 500.0;
  const auto result = core::self_tuning_sssp(g, 3, options);
  EXPECT_EQ(result.controller_degradations, 0u);
  EXPECT_EQ(result.controller_rejected_inputs, 0u);
  for (const auto& it : result.iterations)
    EXPECT_FALSE(it.controller_degraded);
}

}  // namespace
}  // namespace sssp
