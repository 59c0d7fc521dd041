// Primitive microbenchmarks (google-benchmark): throughput of the
// building blocks — advance+filter, bisect, far-queue pushes and
// partitioned pulls, SGD updates, and reference algorithms.
#include <benchmark/benchmark.h>

#include "core/adaptive_sgd.hpp"
#include "core/self_tuning.hpp"
#include "core/tunable_bfs.hpp"
#include "core/tunable_pagerank.hpp"
#include "frontier/engine.hpp"
#include "frontier/far_queue.hpp"
#include "graph/degree_stats.hpp"
#include "graph/rmat.hpp"
#include "graph/road.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/near_far.hpp"
#include "util/rng.hpp"

namespace {

using namespace sssp;

const graph::CsrGraph& rmat_graph() {
  static const graph::CsrGraph g = [] {
    graph::RmatOptions options;
    options.scale = 15;
    options.num_edges = 1u << 18;
    return graph::generate_rmat(options);
  }();
  return g;
}

const graph::CsrGraph& road_graph() {
  static const graph::CsrGraph g = [] {
    graph::RoadOptions options;
    options.rows = 256;
    options.cols = 256;
    return graph::generate_road(options);
  }();
  return g;
}

// A full Bellman-Ford-style sweep of the advance (bisect keeps
// everything) from the max-degree vertex: the advance+filter kernel's
// cost on a skewed-degree (R-MAT) and a uniform-degree (road) graph.
void advance_sweep(benchmark::State& state, const graph::CsrGraph& g) {
  const auto src = graph::max_degree_vertex(g);
  for (auto _ : state) {
    frontier::NearFarEngine engine(g, src);
    std::uint64_t edges = 0;
    while (!engine.frontier_empty()) {
      edges += engine.advance_and_filter().x2;
      engine.bisect(graph::kInfiniteDistance);
    }
    benchmark::DoNotOptimize(edges);
    state.counters["edges"] = static_cast<double>(edges);
  }
}

void BM_AdvanceFilter(benchmark::State& state) {
  advance_sweep(state, rmat_graph());
}
BENCHMARK(BM_AdvanceFilter)->Unit(benchmark::kMillisecond);

void BM_AdvanceSweepRoad(benchmark::State& state) {
  advance_sweep(state, road_graph());
}
BENCHMARK(BM_AdvanceSweepRoad)->Unit(benchmark::kMillisecond);

void BM_NearFarFull(benchmark::State& state) {
  const auto& g = rmat_graph();
  const auto src = graph::max_degree_vertex(g);
  const auto delta = static_cast<graph::Distance>(state.range(0));
  for (auto _ : state) {
    const auto result = algo::near_far(g, src, {.delta = delta});
    benchmark::DoNotOptimize(result.distances.data());
  }
}
BENCHMARK(BM_NearFarFull)->Arg(8)->Arg(128)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_DijkstraRoad(benchmark::State& state) {
  const auto& g = road_graph();
  for (auto _ : state) {
    const auto dist = algo::dijkstra_distances(g, 0);
    benchmark::DoNotOptimize(dist.data());
  }
}
BENCHMARK(BM_DijkstraRoad)->Unit(benchmark::kMillisecond);

void BM_PartitionedPush(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(2);
  std::vector<graph::Distance> dist(n);
  for (auto& d : dist) d = 1 + rng.next_below(1u << 20);
  for (auto _ : state) {
    frontier::FarQueue q(1u << 10);
    // Tighten a few times so pushes exercise the binary search.
    for (int i = 0; i < 8; ++i) q.update_boundary(1000.0, 1.0);
    for (std::size_t i = 0; i < n; ++i)
      q.push(static_cast<graph::VertexId>(i), dist[i]);
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PartitionedPush)->Arg(1 << 12)->Arg(1 << 16);

void BM_PartitionedPullVsFlatScan(benchmark::State& state) {
  // The efficiency claim of Section 4.6: pulling a bounded partition
  // versus scanning the whole queue (arg 0: the single partition
  // near-far runs on). Lower time here = the win.
  const std::size_t n = 1 << 18;
  util::Xoshiro256 rng(3);
  std::vector<graph::Distance> dist(n);
  for (auto& d : dist) d = 1 + rng.next_below(1u << 20);
  const bool partitioned = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    frontier::FarQueue q(partitioned ? (1u << 12) : graph::kInfiniteDistance);
    for (std::size_t i = 0; i < n; ++i)
      q.push(static_cast<graph::VertexId>(i), dist[i]);
    std::vector<graph::VertexId> out;
    state.ResumeTiming();
    out.clear();
    const auto scanned = q.pull_below(1u << 12, dist, out);
    benchmark::DoNotOptimize(scanned);
  }
}
BENCHMARK(BM_PartitionedPullVsFlatScan)->Arg(0)->Arg(1);

void BM_TunableBfs(benchmark::State& state) {
  const auto& g = rmat_graph();
  const auto src = graph::max_degree_vertex(g);
  core::TunableBfsOptions options;
  options.set_point = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const auto result = core::tunable_bfs(g, src, options);
    benchmark::DoNotOptimize(result.levels.data());
  }
}
BENCHMARK(BM_TunableBfs)->Arg(2000)->Arg(200000)
    ->Unit(benchmark::kMillisecond);

void BM_TunablePageRank(benchmark::State& state) {
  const auto& g = rmat_graph();
  core::TunablePageRankOptions options;
  options.tolerance = 1e-6;
  options.set_point = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const auto result = core::tunable_pagerank(g, options);
    benchmark::DoNotOptimize(result.ranks.data());
  }
}
BENCHMARK(BM_TunablePageRank)->Arg(0)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void BM_SelfTuningSssp(benchmark::State& state) {
  const auto& g = rmat_graph();
  const auto src = graph::max_degree_vertex(g);
  core::SelfTuningOptions options;
  options.set_point = static_cast<double>(state.range(0));
  options.measure_controller_time = false;
  for (auto _ : state) {
    const auto result = core::self_tuning_sssp(g, src, options);
    benchmark::DoNotOptimize(result.distances.data());
  }
}
BENCHMARK(BM_SelfTuningSssp)->Arg(2000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_AdaptiveSgdUpdate(benchmark::State& state) {
  core::AdaptiveSgd sgd;
  util::Xoshiro256 rng(4);
  double x = 1.0;
  for (auto _ : state) {
    x = 1.0 + static_cast<double>(rng.next_below(1000));
    benchmark::DoNotOptimize(sgd.update(x, 3.0 * x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptiveSgdUpdate);

}  // namespace

BENCHMARK_MAIN();
