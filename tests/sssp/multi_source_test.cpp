#include "sssp/multi_source.hpp"

#include <gtest/gtest.h>

#include "sssp/near_far.hpp"
#include "tests/sssp/test_graphs.hpp"

namespace sssp::algo {
namespace {

SsspRunner near_far_runner(graph::Distance delta) {
  return [delta](const graph::CsrGraph& g, graph::VertexId source) {
    return near_far(g, source, {.delta = delta});
  };
}

TEST(MultiSource, AggregatesOverRequestedSources) {
  const auto g = testing::random_graph(2000, 5.0, 99, 5);
  MultiSourceOptions options;
  options.num_sources = 6;
  const auto summary = run_multi_source(g, near_far_runner(64), options);
  EXPECT_EQ(summary.sources.size(), 6u);
  EXPECT_EQ(summary.average_parallelism.size(), 6u);
  EXPECT_EQ(summary.iteration_counts.size(), 6u);
  EXPECT_GT(summary.mean_average_parallelism, 0.0);
  EXPECT_GT(summary.mean_iterations, 0.0);
  std::size_t total_iterations = 0;
  for (const std::size_t c : summary.iteration_counts) total_iterations += c;
  EXPECT_EQ(summary.all_iterations.size(), total_iterations);
}

TEST(MultiSource, DeterministicPerSeed) {
  const auto g = testing::random_graph(1000, 4.0, 50, 6);
  MultiSourceOptions options;
  options.num_sources = 4;
  options.seed = 99;
  const auto a = run_multi_source(g, near_far_runner(32), options);
  const auto b = run_multi_source(g, near_far_runner(32), options);
  EXPECT_EQ(a.sources, b.sources);
  EXPECT_EQ(a.mean_iterations, b.mean_iterations);
}

TEST(MultiSource, ReachFilterSkipsPoorSources) {
  // Graph: a large cycle plus isolated vertices; the filter must pick
  // only cycle members.
  std::vector<graph::Edge> edges;
  for (graph::VertexId v = 0; v < 500; ++v)
    edges.push_back({v, (v + 1) % 500, 1});
  const auto g = graph::build_csr(1000, std::move(edges));  // 500 isolated
  MultiSourceOptions options;
  options.num_sources = 5;
  options.min_reach_fraction = 0.4;
  const auto summary = run_multi_source(g, near_far_runner(8), options);
  for (const auto source : summary.sources) EXPECT_LT(source, 500u);
}

TEST(MultiSource, ImpossibleReachThrows) {
  const auto g = graph::build_csr(10, {{0, 1, 1}});
  MultiSourceOptions options;
  options.num_sources = 2;
  options.min_reach_fraction = 0.9;  // nothing reaches 90%
  EXPECT_THROW(run_multi_source(g, near_far_runner(8), options),
               std::invalid_argument);
}

TEST(MultiSource, RejectsBadArguments) {
  const auto g = testing::ring(10);
  MultiSourceOptions options;
  options.num_sources = 0;
  EXPECT_THROW(run_multi_source(g, near_far_runner(8), options),
               std::invalid_argument);
  options = {};
  options.min_reach_fraction = 1.5;
  EXPECT_THROW(run_multi_source(g, near_far_runner(8), options),
               std::invalid_argument);
  const graph::CsrGraph empty(std::vector<graph::EdgeIndex>{0}, {}, {});
  EXPECT_THROW(run_multi_source(empty, near_far_runner(8), {}),
               std::invalid_argument);
}

// The batched overload must draw the identical source sample (the seed
// contract) and agree with the per-source runner on the per-source
// improving-relaxation-independent aggregates that only depend on the
// distances (reachability via iteration presence is too loose — compare
// sources and result counts, then spot-check one lane's distances).
TEST(MultiSource, BatchedOverloadSamplesIdenticalSources) {
  const auto g = testing::random_graph(2000, 5.0, 40, 21);
  MultiSourceOptions options;
  options.num_sources = 6;
  options.seed = 123;

  const auto sequential = run_multi_source(g, near_far_runner(0), options);
  const auto batched = run_multi_source(g, BatchOptions{}, options);
  EXPECT_EQ(batched.sources, sequential.sources);
  EXPECT_EQ(batched.average_parallelism.size(), 6u);
  EXPECT_EQ(batched.iteration_counts.size(), 6u);
  EXPECT_GT(batched.mean_iterations, 0.0);
  EXPECT_GT(batched.mean_improving_relaxations, 0.0);
}

// Batch lanes run the very same serial near-far pipeline per source, so
// the whole summary matches the runner overload exactly.
TEST(MultiSource, BatchedIndependentMatchesRunnerAggregates) {
  const auto g = testing::random_graph(1500, 4.0, 25, 33);
  MultiSourceOptions options;
  options.num_sources = 5;
  options.seed = 7;

  const auto sequential = run_multi_source(g, near_far_runner(0), options);
  const auto batched = run_multi_source(g, BatchOptions{}, options);
  EXPECT_EQ(batched.sources, sequential.sources);
  EXPECT_EQ(batched.iteration_counts, sequential.iteration_counts);
  EXPECT_EQ(batched.improving_relaxations, sequential.improving_relaxations);
  EXPECT_EQ(batched.mean_iterations, sequential.mean_iterations);
}

}  // namespace
}  // namespace sssp::algo
