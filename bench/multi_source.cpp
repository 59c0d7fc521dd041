// Batched multi-source benchmark (docs/PERFORMANCE.md, "Batched
// multi-source"): K = 8 queries against a resident graph, solved two
// ways on the pinned road and R-MAT shapes the regression harness
// tracks —
//   Sequential    K single-source near-far runs back to back (the
//                 pre-batching serve behavior);
//   Independent   one run_batch: K serial lanes work-stolen across the
//                 host pool.
// Every benchmark reports qps (queries per second) plus
// speedup_vs_sequential against a warmup-excluded sequential baseline
// measured once per graph (PASGAL idiom: one untimed warmup round,
// then averaged timed rounds). CI merges this binary's JSON into the
// BENCH_frontier.json artifact.
#include <benchmark/benchmark.h>

#include <vector>

#include "graph/rmat.hpp"
#include "graph/road.hpp"
#include "sssp/batch_engine.hpp"
#include "sssp/near_far.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace sssp;

constexpr std::size_t kNumSources = 8;

// The bench_tool "quick" pins: same shapes the committed regression
// baselines track.
const graph::CsrGraph& road_graph() {
  static const graph::CsrGraph g = [] {
    graph::RoadOptions options;
    options.rows = 288;
    options.cols = 288;
    options.seed = 7;
    return graph::generate_road(options);
  }();
  return g;
}

const graph::CsrGraph& rmat_graph() {
  static const graph::CsrGraph g = [] {
    graph::RmatOptions options;
    options.scale = 15;
    options.num_edges = 1u << 19;
    options.seed = 42;
    return graph::generate_rmat(options);
  }();
  return g;
}

// PASGAL-style hash-picked sources: deterministic, spread over the id
// space, skipping isolated vertices.
std::vector<graph::VertexId> pick_sources(const graph::CsrGraph& g) {
  std::vector<graph::VertexId> sources;
  util::SplitMix64 hash(0x9e3779b97f4a7c15ull);
  while (sources.size() < kNumSources) {
    const auto v =
        static_cast<graph::VertexId>(hash.next() % g.num_vertices());
    if (!g.neighbors(v).empty()) sources.push_back(v);
  }
  return sources;
}

void run_sequential(const graph::CsrGraph& g,
                    const std::vector<graph::VertexId>& sources) {
  for (const graph::VertexId source : sources) {
    const auto result = algo::near_far(g, source);
    benchmark::DoNotOptimize(result.distances.data());
  }
}

// Sequential reference time per graph: one untimed warmup round, then
// the average of 3 timed rounds. Cached so both benchmarks report
// their speedup against the same number.
double sequential_seconds(const graph::CsrGraph& g,
                          const std::vector<graph::VertexId>& sources) {
  run_sequential(g, sources);  // warmup (excluded)
  util::WallTimer timer;
  constexpr int kRounds = 3;
  for (int r = 0; r < kRounds; ++r) run_sequential(g, sources);
  return timer.elapsed_seconds() / kRounds;
}

double road_sequential_seconds() {
  static const double s = sequential_seconds(road_graph(),
                                             pick_sources(road_graph()));
  return s;
}

double rmat_sequential_seconds() {
  static const double s = sequential_seconds(rmat_graph(),
                                             pick_sources(rmat_graph()));
  return s;
}

void report_counters(benchmark::State& state, double sequential_s) {
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(kNumSources * state.iterations()),
      benchmark::Counter::kIsRate);
  // kIsRate divides by total elapsed: (seq_s * iters) / elapsed =
  // seq_s / mean-iteration-time = aggregate speedup.
  state.counters["speedup_vs_sequential"] = benchmark::Counter(
      sequential_s * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void bench_sequential(benchmark::State& state, const graph::CsrGraph& g,
                      double sequential_s) {
  const auto sources = pick_sources(g);
  run_sequential(g, sources);  // warmup (excluded)
  for (auto _ : state) run_sequential(g, sources);
  report_counters(state, sequential_s);
}

void bench_batch(benchmark::State& state, const graph::CsrGraph& g,
                 double sequential_s) {
  const auto sources = pick_sources(g);
  benchmark::DoNotOptimize(algo::run_batch(g, sources).lanes.data());  // warmup
  for (auto _ : state) {
    const auto result = algo::run_batch(g, sources);
    benchmark::DoNotOptimize(result.lanes.data());
  }
  report_counters(state, sequential_s);
}

void BM_MultiSourceSequentialRoad(benchmark::State& state) {
  bench_sequential(state, road_graph(), road_sequential_seconds());
}
void BM_MultiSourceIndependentRoad(benchmark::State& state) {
  bench_batch(state, road_graph(), road_sequential_seconds());
}
void BM_MultiSourceSequentialRmat(benchmark::State& state) {
  bench_sequential(state, rmat_graph(), rmat_sequential_seconds());
}
void BM_MultiSourceIndependentRmat(benchmark::State& state) {
  bench_batch(state, rmat_graph(), rmat_sequential_seconds());
}

BENCHMARK(BM_MultiSourceSequentialRoad)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MultiSourceIndependentRoad)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MultiSourceSequentialRmat)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MultiSourceIndependentRmat)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
