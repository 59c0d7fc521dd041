#include "sssp/bellman_ford.hpp"

#include <gtest/gtest.h>

#include "sssp/dijkstra.hpp"
#include "tests/sssp/test_graphs.hpp"

namespace sssp::algo {
namespace {

TEST(BellmanFord, DiamondDistances) {
  const auto g = testing::diamond();
  const SsspResult r = bellman_ford(g, 0);
  EXPECT_EQ(r.distances, dijkstra_distances(g, 0));
  EXPECT_EQ(r.algorithm, "bellman-ford");
}

TEST(BellmanFord, MatchesDijkstraOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto g = testing::random_graph(500, 4.0, 50, seed);
    const auto expected = dijkstra_distances(g, 0);
    const SsspResult r = bellman_ford(g, 0);
    EXPECT_EQ(count_distance_mismatches(r.distances, expected), 0u)
        << "seed " << seed;
  }
}

TEST(BellmanFord, IterationCountBoundedByLongestPath) {
  // Ring of n vertices: exactly n-1 frontier rounds (plus final empty).
  const auto g = testing::ring(64);
  const SsspResult r = bellman_ford(g, 0);
  EXPECT_EQ(r.num_iterations(), 64u);  // last round relaxes into source
}

TEST(BellmanFord, StatsAreConsistent) {
  const auto g = testing::random_graph(300, 3.0, 20, 7);
  const SsspResult r = bellman_ford(g, 0);
  std::uint64_t improving = 0;
  for (const auto& it : r.iterations) {
    EXPECT_LE(it.x3, it.improving_relaxations);
    // An infinite threshold keeps every updated vertex near.
    EXPECT_EQ(it.x4, it.x3);
    EXPECT_EQ(it.far_queue_size, 0u);
    EXPECT_EQ(it.rebalance_items, 0u);
    improving += it.improving_relaxations;
  }
  EXPECT_EQ(improving, r.improving_relaxations);
  // Every reachable non-source vertex improved at least once.
  EXPECT_GE(r.improving_relaxations, r.reached_count() - 1);
}

TEST(BellmanFord, SourceOnlyGraph) {
  const auto g = graph::build_csr(3, {});
  const SsspResult r = bellman_ford(g, 1);
  EXPECT_EQ(r.distances[1], 0u);
  EXPECT_EQ(r.distances[0], graph::kInfiniteDistance);
  EXPECT_EQ(r.num_iterations(), 1u);
}

TEST(BellmanFord, OutOfRangeSourceThrows) {
  const auto g = testing::ring(4);
  EXPECT_THROW(bellman_ford(g, 9), std::invalid_argument);
}

TEST(BellmanFord, StopRequestAbortsTheRun) {
  const auto g = testing::ring(64);
  util::RunControl control;
  control.request_stop(util::StopReason::kInterrupt);
  EXPECT_THROW(bellman_ford(g, 0, &control), util::StopRequested);
}

}  // namespace
}  // namespace sssp::algo
