// Shortest-path tree and path reconstruction tests, across every
// algorithm that records parents.
#include <gtest/gtest.h>

#include "core/self_tuning.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/near_far.hpp"
#include "tests/sssp/test_graphs.hpp"

namespace sssp::algo {
namespace {

TEST(Paths, DijkstraDiamondPath) {
  const auto g = testing::diamond();
  const SsspResult r = dijkstra(g, 0);
  ASSERT_EQ(r.parents.size(), 4u);
  const auto path = reconstruct_path(r, 3);
  // Shortest 0 -> 3 is 0 -> 2 -> 3 (cost 5).
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 0u);
  EXPECT_EQ(path[1], 2u);
  EXPECT_EQ(path[2], 3u);
}

TEST(Paths, SourcePathIsItself) {
  const auto g = testing::diamond();
  const SsspResult r = dijkstra(g, 0);
  const auto path = reconstruct_path(r, 0);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 0u);
}

TEST(Paths, UnreachableTargetGivesEmptyPath) {
  const auto g = graph::build_csr(3, {{0, 1, 1}});
  const SsspResult r = dijkstra(g, 0);
  EXPECT_TRUE(reconstruct_path(r, 2).empty());
}

TEST(Paths, MissingParentsGiveEmptyPath) {
  SsspResult r;
  r.distances = {0, 5};
  EXPECT_TRUE(reconstruct_path(r, 1).empty());
}

TEST(Paths, CorruptChainThrows) {
  const auto g = testing::ring(4);
  SsspResult r = dijkstra(g, 0);
  // Introduce a 2-cycle in the parent chain.
  r.parents[1] = 2;
  r.parents[2] = 1;
  EXPECT_THROW(reconstruct_path(r, 2), std::logic_error);
}

TEST(Paths, PathWeightsSumToDistance) {
  const auto g = testing::random_graph(500, 4.0, 50, 17);
  const SsspResult r = dijkstra(g, 0);
  for (graph::VertexId target = 0; target < 500; target += 23) {
    const auto path = reconstruct_path(r, target);
    if (path.empty()) continue;
    graph::Distance total = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      // Find the lightest edge path[i] -> path[i+1] that closes the step.
      const auto neighbors = g.neighbors(path[i]);
      const auto weights = g.weights_of(path[i]);
      graph::Distance step = graph::kInfiniteDistance;
      for (std::size_t e = 0; e < neighbors.size(); ++e)
        if (neighbors[e] == path[i + 1])
          step = std::min<graph::Distance>(step, weights[e]);
      ASSERT_NE(step, graph::kInfiniteDistance);
      total += step;
    }
    EXPECT_EQ(total, r.distances[target]) << "target " << target;
  }
}

TEST(Paths, TreeValidForEveryAlgorithm) {
  const auto g = testing::random_graph(800, 5.0, 99, 29);
  const auto check = [&g](const SsspResult& r) {
    EXPECT_EQ(count_tree_violations(g, r), 0u) << r.algorithm;
  };
  check(dijkstra(g, 3));
  check(bellman_ford(g, 3));
  check(delta_stepping(g, 3, {.delta = 25}));
  check(near_far(g, 3, {.delta = 40}));
  core::SelfTuningOptions tuning;
  tuning.set_point = 2000.0;
  check(core::self_tuning_sssp(g, 3, tuning));
}

TEST(Paths, TreeViolationsDetected) {
  const auto g = testing::diamond();
  SsspResult r = dijkstra(g, 0);
  r.parents[3] = 1;  // dist[1] + w(1->?3) does not close dist[3]
  EXPECT_GT(count_tree_violations(g, r), 0u);
  // Size mismatch flagged.
  SsspResult bad;
  bad.distances = r.distances;
  bad.parents = {0};
  EXPECT_EQ(count_tree_violations(g, bad), SIZE_MAX);
}

TEST(Paths, UnreachedVerticesHaveNoParent) {
  const auto g = graph::build_csr(4, {{0, 1, 2}});
  for (const SsspResult& r :
       {dijkstra(g, 0), bellman_ford(g, 0), near_far(g, 0)}) {
    EXPECT_EQ(r.parents[2], graph::kInvalidVertex) << r.algorithm;
    EXPECT_EQ(r.parents[3], graph::kInvalidVertex) << r.algorithm;
    EXPECT_EQ(r.parents[0], 0u) << r.algorithm;
  }
}

}  // namespace
}  // namespace sssp::algo
