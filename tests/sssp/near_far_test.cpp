#include "sssp/near_far.hpp"

#include <gtest/gtest.h>

#include "sssp/dijkstra.hpp"
#include "tests/sssp/test_graphs.hpp"

namespace sssp::algo {
namespace {

TEST(NearFar, DiamondDistances) {
  const auto g = testing::diamond();
  const SsspResult r = near_far(g, 0, {.delta = 2});
  EXPECT_EQ(r.distances, dijkstra_distances(g, 0));
  EXPECT_EQ(r.algorithm, "near-far");
}

TEST(NearFar, DefaultDeltaUsesMeanWeight) {
  const auto g = testing::random_graph(400, 4.0, 80, 5);
  const SsspResult r = near_far(g, 0);
  EXPECT_EQ(count_distance_mismatches(r.distances, dijkstra_distances(g, 0)),
            0u);
}

TEST(NearFar, StatsInvariants) {
  const auto g = testing::random_graph(500, 5.0, 60, 9);
  const SsspResult r = near_far(g, 0, {.delta = 40});
  ASSERT_FALSE(r.iterations.empty());
  for (const auto& it : r.iterations) {
    // filter output cannot exceed improving relaxations, which cannot
    // exceed the edge work items.
    EXPECT_LE(it.x3, it.improving_relaxations);
    EXPECT_LE(it.improving_relaxations, it.x2);
    // bisect keeps a subset of the filtered frontier... plus far refill.
    EXPECT_LE(it.x4, it.x3 + it.rebalance_items);
  }
  // First iteration starts from the source alone.
  EXPECT_EQ(r.iterations.front().x1, 1u);
}

TEST(NearFar, SmallDeltaMoreIterationsThanLargeDelta) {
  const auto g = testing::random_graph(800, 5.0, 99, 13);
  const SsspResult small = near_far(g, 0, {.delta = 2});
  const SsspResult large = near_far(g, 0, {.delta = 100000});
  EXPECT_GT(small.num_iterations(), large.num_iterations());
  // Both exact.
  const auto expected = dijkstra_distances(g, 0);
  EXPECT_EQ(count_distance_mismatches(small.distances, expected), 0u);
  EXPECT_EQ(count_distance_mismatches(large.distances, expected), 0u);
}

TEST(NearFar, LargeDeltaRaisesAverageParallelism) {
  const auto g = testing::random_graph(2000, 6.0, 99, 21);
  const SsspResult small = near_far(g, 0, {.delta = 4});
  const SsspResult large = near_far(g, 0, {.delta = 100000});
  EXPECT_GT(large.average_parallelism(), small.average_parallelism());
}

TEST(NearFar, HugeDeltaIsWorkOptimalish) {
  // With one giant phase there is no postponement: improving relaxations
  // equal those of frontier Bellman-Ford.
  const auto g = testing::ring(50);
  const SsspResult r = near_far(g, 0, {.delta = 1u << 30});
  EXPECT_EQ(r.improving_relaxations, 49u);
}

TEST(NearFar, ZeroWeightEdgesExact) {
  // Loaders can produce zero weights (explicit 0 in an edge list).
  // Zero-weight chains relax within a phase; exactness must hold.
  std::vector<graph::Edge> edges{{0, 1, 0}, {1, 2, 0}, {2, 3, 5},
                                 {0, 3, 6},  {3, 4, 0}, {4, 0, 0}};
  const auto g = graph::build_csr(5, std::move(edges));
  const auto expected = dijkstra_distances(g, 0);
  for (const graph::Distance delta : {1u, 3u, 100u}) {
    const SsspResult r = near_far(g, 0, {.delta = delta});
    EXPECT_EQ(count_distance_mismatches(r.distances, expected), 0u)
        << "delta " << delta;
  }
}

TEST(NearFar, ZeroWeightCycleTerminates) {
  // A pure zero-weight cycle must not loop forever (relaxation only
  // succeeds on strict improvement).
  std::vector<graph::Edge> edges{{0, 1, 0}, {1, 2, 0}, {2, 0, 0}};
  const auto g = graph::build_csr(3, std::move(edges));
  const SsspResult r = near_far(g, 0, {.delta = 10});
  EXPECT_EQ(r.distances[0], 0u);
  EXPECT_EQ(r.distances[1], 0u);
  EXPECT_EQ(r.distances[2], 0u);
}

TEST(NearFar, UnreachableVerticesStayInfinite) {
  const auto g = graph::build_csr(5, {{0, 1, 2}, {1, 2, 2}});
  const SsspResult r = near_far(g, 0, {.delta = 3});
  EXPECT_EQ(r.distances[3], graph::kInfiniteDistance);
  EXPECT_EQ(r.distances[4], graph::kInfiniteDistance);
  EXPECT_EQ(r.reached_count(), 3u);
}

TEST(NearFar, ToWorkloadCarriesIterations) {
  const auto g = testing::random_graph(200, 4.0, 30, 2);
  const SsspResult r = near_far(g, 0, {.delta = 16});
  const sim::RunWorkload w = r.to_workload("test-set");
  EXPECT_EQ(w.iterations.size(), r.num_iterations());
  EXPECT_EQ(w.dataset, "test-set");
  EXPECT_EQ(w.algorithm, "near-far");
  std::uint64_t edges = 0;
  for (const auto& it : r.iterations) edges += it.x2;
  EXPECT_EQ(w.total_edges_relaxed(), edges);
}

// Exactness sweep across graph shapes, sources, and deltas.
struct NearFarCase {
  std::uint64_t seed;
  graph::Distance delta;
  double avg_degree;
};

class NearFarProperty : public ::testing::TestWithParam<NearFarCase> {};

TEST_P(NearFarProperty, MatchesDijkstra) {
  const auto [seed, delta, avg_degree] = GetParam();
  const auto g = testing::random_graph(700, avg_degree, 99, seed);
  const auto src = static_cast<graph::VertexId>((seed * 131) % 700);
  const SsspResult r = near_far(g, src, {.delta = delta});
  EXPECT_EQ(
      count_distance_mismatches(r.distances, dijkstra_distances(g, src)), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NearFarProperty,
    ::testing::Values(NearFarCase{1, 1, 3.0}, NearFarCase{1, 10, 3.0},
                      NearFarCase{1, 100, 3.0}, NearFarCase{1, 10000, 3.0},
                      NearFarCase{2, 5, 1.5}, NearFarCase{2, 50, 1.5},
                      NearFarCase{3, 7, 8.0}, NearFarCase{3, 77, 8.0},
                      NearFarCase{4, 25, 0.8}, NearFarCase{5, 3, 12.0}),
    [](const ::testing::TestParamInfo<NearFarCase>& tpi) {
      return "seed" + std::to_string(tpi.param.seed) + "_delta" +
             std::to_string(tpi.param.delta) + "_deg" +
             std::to_string(static_cast<int>(tpi.param.avg_degree * 10));
    });

}  // namespace
}  // namespace sssp::algo
