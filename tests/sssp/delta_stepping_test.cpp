#include "sssp/delta_stepping.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sssp/dijkstra.hpp"
#include "sssp/near_far.hpp"
#include "tests/sssp/test_graphs.hpp"

namespace sssp::algo {
namespace {

TEST(DeltaStepping, DiamondDistances) {
  const auto g = testing::diamond();
  const SsspResult r = delta_stepping(g, 0, {.delta = 2});
  EXPECT_EQ(r.distances, dijkstra_distances(g, 0));
}

TEST(DeltaStepping, HeuristicDeltaWorks) {
  const auto g = testing::random_graph(400, 4.0, 60, 11);
  const SsspResult r = delta_stepping(g, 0);  // delta = 0 -> heuristic
  EXPECT_EQ(count_distance_mismatches(r.distances, dijkstra_distances(g, 0)),
            0u);
}

TEST(DeltaStepping, OutOfRangeSourceThrows) {
  const auto g = testing::ring(4);
  EXPECT_THROW(delta_stepping(g, 99), std::invalid_argument);
}

TEST(DeltaStepping, StopRequestAbortsTheRun) {
  const auto g = testing::ring(64);
  util::RunControl control;
  control.request_stop(util::StopReason::kInterrupt);
  EXPECT_THROW(delta_stepping(g, 0, {.delta = 1, .control = &control}),
               util::StopRequested);
}

TEST(DeltaStepping, ZeroWeightEdgesExact) {
  // Zero-weight chains stay inside the current bucket and must still
  // settle exactly, whatever the bucket width.
  std::vector<graph::Edge> edges{{0, 1, 0}, {1, 2, 0}, {2, 3, 5},
                                 {0, 3, 6},  {3, 4, 0}, {4, 0, 0}};
  const auto g = graph::build_csr(5, std::move(edges));
  const auto expected = dijkstra_distances(g, 0);
  for (const graph::Distance delta : {1u, 3u, 100u}) {
    const SsspResult r = delta_stepping(g, 0, {.delta = delta});
    EXPECT_EQ(count_distance_mismatches(r.distances, expected), 0u)
        << "delta " << delta;
  }
}

TEST(DeltaStepping, StaleBucketEntryIsNotReinjected) {
  // Vertex 1 is spilled to bucket 10, then improved to 2 through vertex
  // 2 and settled there. Its bucket-10 entry is stale: visiting it scans
  // one entry and injects nothing, so the run ends after 3 iterations.
  const auto g = graph::build_csr(3, {{0, 1, 10}, {0, 2, 1}, {2, 1, 1}});
  const SsspResult r = delta_stepping(g, 0, {.delta = 1});
  EXPECT_EQ(r.distances, (std::vector<graph::Distance>{0, 2, 1}));
  ASSERT_EQ(r.num_iterations(), 3u);
  const std::uint64_t far_sizes[] = {1, 1, 0};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& it = r.iterations[i];
    EXPECT_EQ(it.x1, 1u) << "iteration " << i;
    EXPECT_EQ(it.rebalance_items, 1u) << "iteration " << i;
    EXPECT_EQ(it.far_queue_size, far_sizes[i]) << "iteration " << i;
  }
}

TEST(DeltaStepping, StatsInvariants) {
  const auto g = testing::random_graph(500, 5.0, 60, 9);
  const SsspResult r = delta_stepping(g, 0, {.delta = 8});
  ASSERT_FALSE(r.iterations.empty());
  std::uint64_t improving = 0;
  for (const auto& it : r.iterations) {
    EXPECT_LE(it.x3, it.improving_relaxations);
    EXPECT_LE(it.improving_relaxations, it.x2);
    // bisect keeps a subset of the filtered frontier... plus any
    // bucket refill.
    EXPECT_LE(it.x4, it.x3 + it.rebalance_items);
    improving += it.improving_relaxations;
  }
  EXPECT_EQ(improving, r.improving_relaxations);
  // The first iteration starts from the source alone.
  EXPECT_EQ(r.iterations.front().x1, 1u);
}

TEST(DeltaStepping, UnreachableVerticesStayInfinite) {
  const auto g = graph::build_csr(4, {{0, 1, 3}});
  const SsspResult r = delta_stepping(g, 0, {.delta = 2});
  EXPECT_EQ(r.distances[2], graph::kInfiniteDistance);
  EXPECT_EQ(r.distances[3], graph::kInfiniteDistance);
}

TEST(DeltaStepping, HugeDeltaDegeneratesToBellmanFordButExact) {
  const auto g = testing::random_graph(300, 5.0, 30, 3);
  const SsspResult r = delta_stepping(g, 0, {.delta = 1u << 30});
  EXPECT_EQ(count_distance_mismatches(r.distances, dijkstra_distances(g, 0)),
            0u);
}

TEST(DeltaStepping, DeltaOneDegeneratesToDijkstraLikePhases) {
  const auto g = testing::random_graph(300, 5.0, 30, 4);
  const SsspResult r = delta_stepping(g, 0, {.delta = 1});
  EXPECT_EQ(count_distance_mismatches(r.distances, dijkstra_distances(g, 0)),
            0u);
  // With delta=1 every edge is heavy, so no redundant work: improving
  // relaxations should be close to optimal (one per distance improvement
  // in Dijkstra order, where ties may add a few).
  EXPECT_LE(r.improving_relaxations, 2 * r.reached_count());
}

// At equal delta the bucket ring and near-far's one far queue visit the
// same phases: the runs agree in everything but how each counts its
// far-queue work (rebalance_items, far_queue_size).
TEST(DeltaStepping, MatchesNearFarAtEqualDelta) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    // Weights 0-60, a quarter of them zero.
    util::Xoshiro256 rng(seed);
    std::vector<graph::Edge> edges;
    for (int i = 0; i < 2400; ++i) {
      const auto u = static_cast<graph::VertexId>(rng.next_below(600));
      const auto v = static_cast<graph::VertexId>(rng.next_below(600));
      const auto w = rng.next_below(4) == 0
                         ? graph::Weight{0}
                         : static_cast<graph::Weight>(rng.next_range(1, 60));
      edges.push_back({u, v, w});
    }
    const auto g = graph::build_csr(600, std::move(edges));
    for (const graph::Distance delta : {1u, 3u, 100u, 1u << 30}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " delta " +
                   std::to_string(delta));
      const SsspResult ds = delta_stepping(g, 0, {.delta = delta});
      const SsspResult nf = near_far(g, 0, {.delta = delta});
      EXPECT_EQ(ds.distances, nf.distances);
      EXPECT_EQ(ds.parents, nf.parents);
      EXPECT_EQ(ds.improving_relaxations, nf.improving_relaxations);
      ASSERT_EQ(ds.num_iterations(), nf.num_iterations());
      for (std::size_t i = 0; i < ds.num_iterations(); ++i) {
        frontier::IterationStats it = ds.iterations[i];
        it.rebalance_items = nf.iterations[i].rebalance_items;
        it.far_queue_size = nf.iterations[i].far_queue_size;
        EXPECT_EQ(it, nf.iterations[i]) << "iteration " << i;
      }
    }
  }
}

TEST(DeltaStepping, OversizedRingRunsNearFar) {
  // max_weight / delta + 2 = 2^22 + 2 buckets would dwarf the graph:
  // the run is near-far's at the same delta, under its own name.
  const auto g = graph::build_csr(3, {{0, 1, 1u << 22}, {0, 2, 1}, {2, 1, 5}});
  const SsspResult ds = delta_stepping(g, 0, {.delta = 1});
  const SsspResult nf = near_far(g, 0, {.delta = 1});
  EXPECT_EQ(ds.algorithm, "delta-stepping");
  EXPECT_EQ(ds.distances, (std::vector<graph::Distance>{0, 6, 1}));
  EXPECT_EQ(ds.source, nf.source);
  EXPECT_EQ(ds.distances, nf.distances);
  EXPECT_EQ(ds.parents, nf.parents);
  EXPECT_EQ(ds.iterations, nf.iterations);
  EXPECT_EQ(ds.improving_relaxations, nf.improving_relaxations);
  EXPECT_EQ(ds.controller_seconds, nf.controller_seconds);
  EXPECT_EQ(ds.controller_degradations, nf.controller_degradations);
  EXPECT_EQ(ds.controller_recoveries, nf.controller_recoveries);
  EXPECT_EQ(ds.controller_rejected_inputs, nf.controller_rejected_inputs);
  EXPECT_EQ(ds.audits_run, nf.audits_run);
  EXPECT_EQ(ds.audit_violations, nf.audit_violations);
}

// Property sweep: exactness across deltas, seeds, and graph shapes.
struct DeltaCase {
  std::uint64_t seed;
  graph::Distance delta;
};

class DeltaSteppingProperty : public ::testing::TestWithParam<DeltaCase> {};

TEST_P(DeltaSteppingProperty, MatchesDijkstra) {
  const auto [seed, delta] = GetParam();
  const auto g = testing::random_graph(600, 4.0, 99, seed);
  const auto src = static_cast<graph::VertexId>(seed % 600);
  const SsspResult r = delta_stepping(g, src, {.delta = delta});
  EXPECT_EQ(count_distance_mismatches(r.distances,
                                      dijkstra_distances(g, src)),
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeltaSteppingProperty,
    ::testing::Values(DeltaCase{1, 1}, DeltaCase{1, 7}, DeltaCase{1, 50},
                      DeltaCase{1, 500}, DeltaCase{2, 3}, DeltaCase{2, 25},
                      DeltaCase{3, 10}, DeltaCase{3, 100}, DeltaCase{4, 64},
                      DeltaCase{5, 2}),
    [](const ::testing::TestParamInfo<DeltaCase>& tpi) {
      return "seed" + std::to_string(tpi.param.seed) + "_delta" +
             std::to_string(tpi.param.delta);
    });

}  // namespace
}  // namespace sssp::algo
