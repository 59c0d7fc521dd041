// Engines running in parallel: the advance is serial, so parallelism
// comes from running several engines at once on the host pool, the way
// independent batch lanes and serve workers do. A sweep must not notice
// its neighbours: its frontier ordering, per-iteration X1/X2/X3 and
// improving counts, parents, and distances are bit-identical to a lone
// sweep at any pool size. These tests pin that contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "frontier/engine.hpp"
#include "graph/types.hpp"
#include "tests/sssp/test_graphs.hpp"
#include "util/thread_pool.hpp"

namespace sssp::frontier {
namespace {

using graph::kInfiniteDistance;

// Runs a Bellman-Ford-style sweep (bisect keeps everything) and records
// everything the determinism contract covers.
struct SweepTrace {
  std::vector<std::array<std::uint64_t, 4>> stats;  // x1, x2, x3, improving
  std::vector<std::vector<graph::VertexId>> frontiers;  // ordering included
  std::vector<graph::Distance> distances;
  std::vector<graph::VertexId> parents;

  bool operator==(const SweepTrace&) const = default;
};

SweepTrace run_sweep(const graph::CsrGraph& g, graph::VertexId source) {
  NearFarEngine engine(g, source);
  SweepTrace trace;
  while (!engine.frontier_empty()) {
    const auto advance = engine.advance_and_filter();
    trace.stats.push_back(
        {advance.x1, advance.x2, advance.x3, advance.improving_relaxations});
    engine.bisect(kInfiniteDistance);
    trace.frontiers.emplace_back(engine.frontier().begin(),
                                 engine.frontier().end());
  }
  trace.distances = engine.distances();
  trace.parents = engine.parents();
  return trace;
}

// One sweep per source, all at once on the global pool.
std::vector<SweepTrace> run_sweeps_in_parallel(
    const graph::CsrGraph& g, const std::vector<graph::VertexId>& sources) {
  std::vector<SweepTrace> traces(sources.size());
  util::for_each_chunk(sources.size(), [&](std::size_t i, std::size_t) {
    traces[i] = run_sweep(g, sources[i]);
  });
  return traces;
}

std::vector<graph::VertexId> spread_sources(const graph::CsrGraph& g) {
  std::vector<graph::VertexId> sources;
  for (graph::VertexId i = 0; i < 8; ++i)
    sources.push_back(static_cast<graph::VertexId>(
        (i * g.num_vertices()) / 8));
  return sources;
}

// Exactness certificate: no edge can still lower a distance (upper
// bound holds everywhere), and every reached vertex's parent edge
// achieves its distance (the tree realizes it); the source is its own
// parent, unreached vertices have none.
void expect_exact(const graph::CsrGraph& g, graph::VertexId source,
                  const SweepTrace& trace) {
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    if (trace.distances[u] == kInfiniteDistance) continue;
    const auto neighbors = g.neighbors(u);
    const auto weights = g.weights_of(u);
    for (std::size_t i = 0; i < neighbors.size(); ++i)
      EXPECT_LE(trace.distances[neighbors[i]],
                trace.distances[u] + weights[i])
          << "edge " << u << "->" << neighbors[i] << " still relaxes";
  }
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (trace.distances[v] == kInfiniteDistance) {
      EXPECT_EQ(trace.parents[v], graph::kInvalidVertex) << "vertex " << v;
      continue;
    }
    if (v == source) {
      EXPECT_EQ(trace.parents[v], source);
      continue;
    }
    const graph::VertexId p = trace.parents[v];
    ASSERT_NE(p, graph::kInvalidVertex) << "vertex " << v;
    const auto neighbors = g.neighbors(p);
    const auto weights = g.weights_of(p);
    bool achieves = false;
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i] == v &&
          trace.distances[p] + weights[i] == trace.distances[v]) {
        achieves = true;
        break;
      }
    }
    EXPECT_TRUE(achieves) << "parent edge " << p << "->" << v
                          << " does not achieve dist[" << v << "]";
  }
}

class ParallelEngineTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelEngineTest, ParallelSweepBitIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  const auto g = algo::testing::random_graph(3000, 6.0, 99, seed);
  const auto sources = spread_sources(g);

  std::vector<SweepTrace> lone;
  for (const graph::VertexId source : sources)
    lone.push_back(run_sweep(g, source));
  for (const std::size_t threads : {1, 2, 4, 8}) {
    util::ThreadPool::set_global_threads(threads);
    const std::vector<SweepTrace> traces = run_sweeps_in_parallel(g, sources);
    for (std::size_t i = 0; i < sources.size(); ++i)
      EXPECT_EQ(traces[i], lone[i])
          << "threads=" << threads << " source=" << sources[i];
  }
  util::ThreadPool::set_global_threads(0);
}

TEST_P(ParallelEngineTest, ParallelSweepDistancesExact) {
  const std::uint64_t seed = GetParam();
  const auto g = algo::testing::random_graph(3000, 6.0, 99, seed ^ 0xF00);
  const auto sources = spread_sources(g);

  util::ThreadPool::set_global_threads(4);
  const std::vector<SweepTrace> traces = run_sweeps_in_parallel(g, sources);
  util::ThreadPool::set_global_threads(0);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    expect_exact(g, sources[i], traces[i]);
    // Filter dedup bound holds in every iteration.
    for (const auto& it : traces[i].stats) EXPECT_LE(it[2], it[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEngineTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ParallelEngine, UpdatedFrontierIsDuplicateFree) {
  const auto g = algo::testing::random_graph(4000, 8.0, 9, 3);
  NearFarEngine engine(g, 0);
  while (!engine.frontier_empty()) {
    engine.advance_and_filter();
    engine.bisect(kInfiniteDistance);
    std::vector<graph::VertexId> frontier(engine.frontier().begin(),
                                          engine.frontier().end());
    std::sort(frontier.begin(), frontier.end());
    EXPECT_EQ(std::adjacent_find(frontier.begin(), frontier.end()),
              frontier.end());
  }
}

}  // namespace
}  // namespace sssp::frontier
