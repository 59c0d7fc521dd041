// Differential performance-regression runner (docs/PERFORMANCE.md,
// "Regression harness").
//
// Executes a pinned workload matrix — road + R-MAT graphs × thread
// counts 1/4 × near-far/self-tuning — measuring each cell median-of-N
// with warmup runs excluded, then one extra profiled run per cell for
// energy and hardware counters (degrading through the same backend
// ladder as sssp_tool --profile). Results land in BENCH_sssp.json
// (schema "tunesssp.bench.v1").
//
// With --baseline the current medians are compared cell-by-cell
// against a committed baseline document using a noise-aware threshold:
// a cell regresses only when its median slowed by more than
// max(--threshold, baseline_spread + current_spread), where spread is
// (max - min) / (2 * median) of the measured runs. Regressions list on
// stderr and the tool exits 14 (kExitBenchRegression) so CI can gate.
//
// --slowdown F spins inside the timed region until each run takes F×
// its real time — an injected synthetic regression used by the test
// suite to prove the comparison actually fires.
//
// --overhead-check asserts the disarmed-profiling guarantee: a
// SSSP_PROF_PHASE scope that is not armed costs one relaxed atomic
// load and a branch, and (entries-per-sweep × per-scope-cost) must be
// ≤ 1% of the advance sweep's wall clock.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/self_tuning.hpp"
#include "frontier/engine.hpp"
#include "graph/binary_io.hpp"
#include "graph/csr.hpp"
#include "graph/degree_stats.hpp"
#include "graph/rmat.hpp"
#include "graph/road.hpp"
#include "obs/json.hpp"
#include "prof/profiler.hpp"
#include "serve/server.hpp"
#include "sssp/batch_engine.hpp"
#include "sssp/near_far.hpp"
#include "tools/tool_common.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace sssp;

struct Cell {
  std::string name;       // stable key, e.g. "road.t1.near-far"
  std::string dataset;    // "road" | "rmat"
  std::size_t threads;    // 1 | 4
  std::string algorithm;  // "near-far" | "self-tuning"
};

struct CellResult {
  Cell cell;
  std::vector<double> run_seconds;  // measured runs, warmups excluded
  double median_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  double spread = 0.0;  // (max - min) / (2 * median)
  std::uint64_t iterations = 0;
  std::uint64_t improving_relaxations = 0;
  double edges_per_second = 0.0;
  // From the extra profiled run.
  double energy_joules = 0.0;
  double average_watts = 0.0;
  std::string energy_backend;
  std::string counter_backend;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
};

// The matrix is pinned: fixed generator seeds, fixed sources, fixed
// cells. quick is sized for CI smoke (sub-second cells); full for
// workstation trend tracking.
graph::CsrGraph make_bench_graph(const std::string& dataset, bool full) {
  if (dataset == "road") {
    graph::RoadOptions options;
    options.rows = full ? 512 : 288;
    options.cols = full ? 512 : 288;
    options.seed = 7;
    return graph::generate_road(options);
  }
  graph::RmatOptions options;
  options.scale = full ? 17 : 15;
  options.num_edges = full ? (1u << 20) : (1u << 19);
  options.seed = 42;
  return graph::generate_rmat(options);
}

std::vector<Cell> make_matrix() {
  std::vector<Cell> cells;
  for (const char* dataset : {"road", "rmat"})
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}})
      for (const char* algorithm : {"near-far", "self-tuning"}) {
        Cell cell;
        cell.dataset = dataset;
        cell.threads = threads;
        cell.algorithm = algorithm;
        cell.name = std::string(dataset) + ".t" + std::to_string(threads) +
                    "." + algorithm;
        cells.push_back(cell);
      }
  return cells;
}

algo::SsspResult run_cell_once(const Cell& cell, const graph::CsrGraph& g,
                               graph::VertexId source) {
  if (cell.algorithm == "near-far") {
    algo::NearFarOptions options;
    return algo::near_far(g, source, options);
  }
  core::SelfTuningOptions options;
  options.set_point = 20000.0;
  options.measure_controller_time = false;  // deterministic workload
  return core::self_tuning_sssp(g, source, options);
}

// Spins until the timed region has consumed factor× its real elapsed
// time. Burns CPU (not sleep) so the slowdown survives task-clock
// accounting too.
void apply_slowdown(const util::WallTimer& timer, double real_seconds,
                    double factor) {
  if (factor <= 1.0) return;
  volatile std::uint64_t sink = 0;
  while (timer.elapsed_seconds() < real_seconds * factor) {
    std::uint64_t acc = sink;
    for (int i = 0; i < 1000; ++i) acc += static_cast<std::uint64_t>(i);
    sink = acc;
  }
}

double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

CellResult measure_cell(const Cell& cell, const graph::CsrGraph& g,
                        int runs, int warmup, double slowdown,
                        const prof::Profiler::Options& profile_options) {
  CellResult result;
  result.cell = cell;
  util::ThreadPool::set_global_threads(cell.threads);
  const graph::VertexId source = graph::max_degree_vertex(g);

  for (int run = 0; run < warmup + runs; ++run) {
    util::WallTimer timer;
    algo::SsspResult r = run_cell_once(cell, g, source);
    const double real = timer.elapsed_seconds();
    apply_slowdown(timer, real, slowdown);
    const double seconds = timer.elapsed_seconds();
    if (run < warmup) continue;
    result.run_seconds.push_back(seconds);
    result.iterations = r.iterations.size();
    result.improving_relaxations = r.improving_relaxations;
  }

  result.median_seconds = median_of(result.run_seconds);
  result.min_seconds =
      *std::min_element(result.run_seconds.begin(), result.run_seconds.end());
  result.max_seconds =
      *std::max_element(result.run_seconds.begin(), result.run_seconds.end());
  result.spread = result.median_seconds > 0.0
                      ? (result.max_seconds - result.min_seconds) /
                            (2.0 * result.median_seconds)
                      : 0.0;
  result.edges_per_second =
      result.median_seconds > 0.0
          ? static_cast<double>(g.num_edges()) / result.median_seconds
          : 0.0;

  // One extra armed run for energy/counters — kept out of the timing
  // sample so backend probes and per-phase reads never skew medians.
  prof::Profiler& profiler = prof::Profiler::global();
  profiler.start(profile_options);
  {
    util::WallTimer timer;
    algo::SsspResult r = run_cell_once(cell, g, source);
    apply_slowdown(timer, timer.elapsed_seconds(), 1.0);
    (void)r;
  }
  profiler.stop();
  const prof::RunProfile profile = profiler.report();
  result.energy_joules = profile.energy.joules;
  result.average_watts = profile.energy.average_watts;
  result.energy_backend = prof::to_string(profile.energy.backend);
  result.counter_backend = prof::to_string(profile.counter_backend);
  result.cycles = profile.totals.cycles;
  result.instructions = profile.totals.instructions;
  return result;
}

// Serving throughput over the pinned road graph (--serve): a seeded
// hot/cold query mix driven closed-loop through an in-process
// serve::Server with certification on, reported as the `serve` section
// of the bench document. Informational only — the baseline comparison
// walks `cells` and never gates on it (QPS on shared CI runners is too
// noisy to diff), but the trend lands in every BENCH_sssp.json.
// Resident-set snapshot from /proc/self/status (kB fields, reported in
// MB). The anon/file split is what makes the multi-process memory
// story legible: private (anon) pages are paid once per worker
// process, while file-backed pages — the mmap'd graph cache
// (graph/mmap_cache.hpp) — are shared page-cache entries, so N workers
// cost ~1x graph RSS, not Nx.
struct RssSnapshot {
  double vm_rss_mb = 0.0;  // total resident
  double anon_mb = 0.0;    // private: heap, stacks — per-process
  double file_mb = 0.0;    // file-backed: shared across processes
};

RssSnapshot read_rss() {
  RssSnapshot snap;
  std::ifstream status("/proc/self/status");
  std::string line;
  const auto kb_field = [&](const char* key) -> double {
    if (line.rfind(key, 0) != 0) return -1.0;
    return std::strtod(line.c_str() + std::strlen(key), nullptr) / 1024.0;
  };
  while (std::getline(status, line)) {
    if (const double v = kb_field("VmRSS:"); v >= 0.0) snap.vm_rss_mb = v;
    if (const double v = kb_field("RssAnon:"); v >= 0.0) snap.anon_mb = v;
    if (const double v = kb_field("RssFile:"); v >= 0.0) snap.file_mb = v;
  }
  return snap;
}

struct ServeBench {
  bool ran = false;
  std::uint64_t queries = 0;
  std::uint64_t completed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t shed = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double latency_ms_p50 = 0.0, latency_ms_p95 = 0.0, latency_ms_p99 = 0.0;
  RssSnapshot rss;            // taken right after the drive loop
  double graph_heap_mb = 0.0; // 0 when the graph is an mmap view
  double mapped_mb = 0.0;     // > 0 for the mmap leg
};

ServeBench measure_serve(const graph::CsrGraph& g, bool full) {
  ServeBench bench;
  serve::ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 64;
  options.cache_entries = 128;
  options.verify_default = true;  // measure *certified* serving
  serve::Server server(g, options);
  server.start();

  // Seeded mix: 60% of queries hit a 4-source hot set (cache-served
  // after first touch), the rest draw cold sources.
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<graph::VertexId> any_source(
      0, static_cast<graph::VertexId>(g.num_vertices() - 1));
  const graph::VertexId hot[4] = {any_source(rng), any_source(rng),
                                  any_source(rng), any_source(rng)};

  const std::uint64_t total = full ? 2000 : 400;
  // Closed loop with bounded outstanding work: never deeper than half
  // the queue, so this measures service rate, not shed rate.
  const std::size_t window = options.queue_capacity / 2;
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t responded = 0;
  const auto sink = [&](const serve::Response&) {
    std::lock_guard<std::mutex> lock(mu);
    ++responded;
    cv.notify_all();
  };

  util::WallTimer timer;
  for (std::uint64_t i = 0; i < total; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return i - responded < window; });
    }
    const graph::VertexId source =
        coin(rng) < 0.6 ? hot[i % 4] : any_source(rng);
    server.submit("{\"id\":" + std::to_string(i) +
                      ",\"source\":" + std::to_string(source) + "}",
                  sink);
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return responded == total; });
  }
  bench.seconds = timer.elapsed_seconds();
  bench.rss = read_rss();
  bench.graph_heap_mb =
      static_cast<double>(g.memory_bytes()) / (1024.0 * 1024.0);
  server.drain();

  const serve::ServerStats stats = server.stats();
  bench.ran = true;
  bench.queries = total;
  bench.completed = stats.completed;
  bench.cache_hits = stats.cache.hits;
  bench.shed = stats.shed_queue_full + stats.shed_expired_queue;
  bench.qps = bench.seconds > 0.0
                  ? static_cast<double>(stats.completed) / bench.seconds
                  : 0.0;
  bench.latency_ms_p50 = stats.latency_ms_p50;
  bench.latency_ms_p95 = stats.latency_ms_p95;
  bench.latency_ms_p99 = stats.latency_ms_p99;
  return bench;
}

// The same serve workload over an mmap'd v2 cache of the road graph
// instead of the heap copy — the configuration the crash-isolated
// supervisor runs its worker fleet in. The interesting number is the
// RSS split: the graph's bytes move from anon (private, per-process)
// to file-backed (shared page cache), which is why N worker processes
// cost ~1x graph RSS instead of Nx (docs/SERVING.md, "Process model &
// crash isolation").
ServeBench measure_serve_mmap(const graph::CsrGraph& road, bool full) {
  const std::string path = "/tmp/tunesssp_bench_road_" +
                           std::to_string(::getpid()) + ".bin";
  graph::save_binary_file(road, path);
  ServeBench bench;
  {
    graph::MmapGraph mapped = graph::MmapGraph::open(path);
    bench = measure_serve(mapped.graph(), full);
    bench.mapped_mb =
        static_cast<double>(mapped.mapped_bytes()) / (1024.0 * 1024.0);
  }
  std::remove(path.c_str());
  return bench;
}

// Batched multi-source throughput (--multi-source): the same K = 8
// hash-picked sources per pinned graph class solved two ways —
// sequentially (K single-source near-far runs) and as one batch of
// independent lanes (docs/PERFORMANCE.md, "Batched multi-source").
// Warmup runs are excluded, timed runs averaged.
// Informational like `serve`: reported as the `multi_source` section,
// never gated — the gated speedup record lives in BENCH_frontier.json
// via bench/multi_source.
struct MultiSourceBench {
  bool ran = false;
  std::size_t lanes = 0;
  struct Row {
    std::string dataset;
    double sequential_seconds = 0.0;
    double independent_seconds = 0.0;
  };
  std::vector<Row> rows;
};

MultiSourceBench measure_multi_source(
    const std::map<std::string, graph::CsrGraph>& graphs, int runs,
    int warmup) {
  MultiSourceBench bench;
  bench.ran = true;
  bench.lanes = 8;
  for (const auto& [name, g] : graphs) {
    std::vector<graph::VertexId> sources;
    util::SplitMix64 hash(0x9e3779b97f4a7c15ull);
    while (sources.size() < bench.lanes) {
      const auto v =
          static_cast<graph::VertexId>(hash.next() % g.num_vertices());
      if (!g.neighbors(v).empty()) sources.push_back(v);
    }
    const auto time_avg = [&](const auto& fn) {
      for (int i = 0; i < warmup; ++i) fn();
      util::WallTimer timer;
      for (int i = 0; i < runs; ++i) fn();
      return timer.elapsed_seconds() / runs;
    };
    MultiSourceBench::Row row;
    row.dataset = name;
    row.sequential_seconds = time_avg([&] {
      for (const graph::VertexId s : sources) (void)algo::near_far(g, s);
    });
    row.independent_seconds =
        time_avg([&] { (void)algo::run_batch(g, sources); });
    bench.rows.push_back(row);
  }
  return bench;
}

void write_serve_section(obs::JsonWriter& w, const ServeBench& bench) {
  w.key("queries").value(bench.queries);
  w.key("completed").value(bench.completed);
  w.key("cache_hits").value(bench.cache_hits);
  w.key("shed").value(bench.shed);
  w.key("seconds").value(bench.seconds);
  w.key("qps").value(bench.qps);
  w.key("latency_ms_p50").value(bench.latency_ms_p50);
  w.key("latency_ms_p95").value(bench.latency_ms_p95);
  w.key("latency_ms_p99").value(bench.latency_ms_p99);
  w.key("graph_heap_mb").value(bench.graph_heap_mb);
  if (bench.mapped_mb > 0.0) w.key("graph_mapped_mb").value(bench.mapped_mb);
  w.key("rss").begin_object();
  w.key("vm_rss_mb").value(bench.rss.vm_rss_mb);
  w.key("anon_mb").value(bench.rss.anon_mb);
  w.key("file_mb").value(bench.rss.file_mb);
  w.end_object();
}

void write_bench_json(std::ostream& out, const std::string& matrix, int runs,
                      int warmup, double slowdown,
                      const std::vector<CellResult>& results,
                      const ServeBench& serve_bench,
                      const ServeBench& serve_mmap_bench,
                      const MultiSourceBench& multi_bench) {
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("schema").value("tunesssp.bench.v1");
  w.key("matrix").value(matrix);
  w.key("runs").value(static_cast<std::uint64_t>(runs));
  w.key("warmup").value(static_cast<std::uint64_t>(warmup));
  w.key("slowdown").value(slowdown);
  w.key("cells").begin_array();
  for (const CellResult& r : results) {
    w.begin_object();
    w.key("name").value(r.cell.name);
    w.key("dataset").value(r.cell.dataset);
    w.key("threads").value(static_cast<std::uint64_t>(r.cell.threads));
    w.key("algorithm").value(r.cell.algorithm);
    w.key("median_seconds").value(r.median_seconds);
    w.key("min_seconds").value(r.min_seconds);
    w.key("max_seconds").value(r.max_seconds);
    w.key("spread").value(r.spread);
    w.key("iterations").value(r.iterations);
    w.key("improving_relaxations").value(r.improving_relaxations);
    w.key("edges_per_second").value(r.edges_per_second);
    w.key("energy_joules").value(r.energy_joules);
    w.key("average_watts").value(r.average_watts);
    w.key("energy_backend").value(r.energy_backend);
    w.key("counter_backend").value(r.counter_backend);
    w.key("cycles").value(r.cycles);
    w.key("instructions").value(r.instructions);
    w.end_object();
  }
  w.end_array();
  if (serve_bench.ran) {
    w.key("serve").begin_object();
    write_serve_section(w, serve_bench);
    w.end_object();
  }
  // Informational like `serve`: the per-process RSS split documents the
  // shared-mmap memory win (a supervisor's N workers cost ~1x graph RSS
  // because file-backed pages are shared; anon pages are per-process).
  if (serve_mmap_bench.ran) {
    w.key("serve_mmap").begin_object();
    write_serve_section(w, serve_mmap_bench);
    w.key("note").value(
        "graph pages are file-backed (shared page cache): N worker "
        "processes over the same cache cost ~1x graph RSS, not Nx");
    w.end_object();
  }
  if (multi_bench.ran) {
    w.key("multi_source").begin_object();
    w.key("lanes").value(static_cast<std::uint64_t>(multi_bench.lanes));
    w.key("rows").begin_array();
    for (const MultiSourceBench::Row& row : multi_bench.rows) {
      w.begin_object();
      w.key("dataset").value(row.dataset);
      w.key("sequential_seconds").value(row.sequential_seconds);
      w.key("independent_seconds").value(row.independent_seconds);
      w.key("independent_speedup")
          .value(row.independent_seconds > 0.0
                     ? row.sequential_seconds / row.independent_seconds
                     : 0.0);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

// Cell-by-cell comparison against a committed baseline. Returns the
// number of regressions (0 = clean). Cells absent from the baseline —
// or too fast to time reliably — are reported but never fail the run.
int compare_against_baseline(const std::string& baseline_path,
                             double threshold,
                             const std::vector<CellResult>& results) {
  std::ifstream in(baseline_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench: cannot open baseline %s\n",
                 baseline_path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  obs::JsonValue baseline;
  if (!obs::parse_json(buffer.str(), baseline)) {
    std::fprintf(stderr, "bench: baseline %s is not valid JSON\n",
                 baseline_path.c_str());
    return 1;
  }
  std::map<std::string, const obs::JsonValue*> baseline_cells;
  if (const obs::JsonValue* cells = baseline.find("cells");
      cells != nullptr && cells->is_array()) {
    for (const obs::JsonValue& cell : cells->array)
      baseline_cells[cell.string_or("name", "")] = &cell;
  }

  // Cells faster than this cannot be compared meaningfully: scheduler
  // jitter alone exceeds any honest threshold.
  constexpr double kMinComparableSeconds = 0.002;
  int regressions = 0;
  for (const CellResult& r : results) {
    const auto it = baseline_cells.find(r.cell.name);
    if (it == baseline_cells.end()) {
      std::printf("bench: %-24s NEW (no baseline cell)\n",
                  r.cell.name.c_str());
      continue;
    }
    const double base_median = it->second->number_or("median_seconds", 0.0);
    const double base_spread = it->second->number_or("spread", 0.0);
    if (base_median < kMinComparableSeconds ||
        r.median_seconds < kMinComparableSeconds) {
      std::printf("bench: %-24s SKIP (sub-%.0fms cell)\n", r.cell.name.c_str(),
                  kMinComparableSeconds * 1e3);
      continue;
    }
    const double change = (r.median_seconds - base_median) / base_median;
    const double effective =
        std::max(threshold, base_spread + r.spread);
    const bool regressed = change > effective;
    if (regressed) ++regressions;
    std::printf("bench: %-24s %+6.1f%% (median %.4fs vs %.4fs, "
                "threshold %.1f%%) %s\n",
                r.cell.name.c_str(), change * 100.0, r.median_seconds,
                base_median, effective * 100.0,
                regressed ? "REGRESSION" : "ok");
    if (regressed)
      std::fprintf(stderr,
                   "bench: REGRESSION %s: %.4fs vs baseline %.4fs "
                   "(+%.1f%% > %.1f%%)\n",
                   r.cell.name.c_str(), r.median_seconds, base_median,
                   change * 100.0, effective * 100.0);
  }
  return regressions;
}

// Asserts the ≤1% disarmed-profiling guarantee on the advance sweep
// (the hot loop SSSP_PROF_PHASE instruments most densely):
//   1. one armed sweep counts the phase-scope entries a sweep performs;
//   2. unprofiled sweeps give the honest wall clock;
//   3. a tight loop measures what one disarmed scope costs;
// then entries × per-scope-cost must stay under 1% of the sweep time.
int run_overhead_check() {
  graph::RmatOptions options;
  options.scale = 13;
  options.num_edges = 1u << 16;
  options.seed = 42;
  const graph::CsrGraph g = graph::generate_rmat(options);
  const graph::VertexId source = graph::max_degree_vertex(g);
  util::ThreadPool::set_global_threads(1);

  const auto sweep = [&] {
    frontier::NearFarEngine engine(g, source);
    std::uint64_t edges = 0;
    while (!engine.frontier_empty()) {
      edges += engine.advance_and_filter().x2;
      engine.bisect(graph::kInfiniteDistance);
    }
    return edges;
  };

  // 1. Armed sweep: total scope entries (all phases).
  prof::Profiler::Options profile_options;
  profile_options.use_perf = false;
  profile_options.use_rapl = false;
  prof::Profiler& profiler = prof::Profiler::global();
  profiler.start(profile_options);
  (void)sweep();
  profiler.stop();
  std::uint64_t entries = 0;
  for (const auto& [name, phase] : profiler.report().phases)
    entries += phase.entries;

  // 2. Median unprofiled sweep time.
  std::vector<double> times;
  for (int i = 0; i < 5; ++i) {
    util::WallTimer timer;
    (void)sweep();
    times.push_back(timer.elapsed_seconds());
  }
  const double sweep_seconds = median_of(times);

  // 3. Disarmed per-scope cost.
  constexpr std::uint64_t kScopes = 20'000'000;
  util::WallTimer timer;
  for (std::uint64_t i = 0; i < kScopes; ++i) {
    SSSP_PROF_PHASE("bench.overhead");
  }
  const double per_scope = timer.elapsed_seconds() / kScopes;

  const double overhead =
      sweep_seconds > 0.0
          ? static_cast<double>(entries) * per_scope / sweep_seconds
          : 0.0;
  std::printf(
      "overhead check: %llu scopes/sweep x %.1f ns/scope = %.4f%% of "
      "%.4fs sweep (limit 1%%): %s\n",
      static_cast<unsigned long long>(entries), per_scope * 1e9,
      overhead * 100.0, sweep_seconds, overhead <= 0.01 ? "PASS" : "FAIL");
  return overhead <= 0.01 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  flags.define("matrix", "quick",
               "workload matrix: quick (CI smoke) | full (trend tracking)");
  flags.define("runs", "5", "measured runs per cell (median reported)");
  flags.define("warmup", "1", "warmup runs per cell, excluded from stats");
  flags.define("out", "BENCH_sssp.json", "write the bench document here");
  flags.define("baseline", "",
               "compare against this committed bench document; exit 14 on "
               "any noise-adjusted median-time regression");
  flags.define("threshold", "0.15",
               "minimum relative slowdown treated as a regression (the "
               "effective threshold also adds both runs' spreads)");
  flags.define("slowdown", "1",
               "spin until every run takes this factor of its real time "
               "(test hook: injects a synthetic regression)");
  flags.define("serve", "false",
               "also bench the query service: a seeded hot/cold mix through "
               "an in-process server (certification on), reported as the "
               "`serve` section (informational, never gated)");
  flags.define("multi-source", "false",
               "also bench batched multi-source: K=8 pinned queries per "
               "graph class, sequential vs independent lanes, reported "
               "as the `multi_source` section (informational, never gated)");
  flags.define("overhead-check", "false",
               "assert disarmed SSSP_PROF_PHASE costs <= 1% of the advance "
               "sweep wall clock, then exit");
  flags.define("profile-no-perf", "false",
               "skip the perf_event probe for the per-cell energy run");
  flags.define("profile-no-rapl", "false",
               "skip the RAPL probe for the per-cell energy run");
  if (flags.handle_help(
          "differential performance/energy regression runner over a pinned "
          "road + R-MAT workload matrix"))
    return 0;
  flags.check_unknown();

  try {
    if (flags.get_bool("overhead-check")) return run_overhead_check();

    const std::string matrix = flags.get_string("matrix");
    if (matrix != "quick" && matrix != "full")
      throw std::runtime_error("--matrix expects quick or full");
    const bool full = matrix == "full";
    const int runs = static_cast<int>(flags.get_int("runs"));
    const int warmup = static_cast<int>(flags.get_int("warmup"));
    if (runs < 1 || warmup < 0)
      throw std::runtime_error("--runs must be >= 1 and --warmup >= 0");
    const double slowdown = flags.get_double("slowdown");
    if (slowdown < 1.0)
      throw std::runtime_error("--slowdown must be >= 1");

    prof::Profiler::Options profile_options;
    profile_options.use_perf = !flags.get_bool("profile-no-perf");
    profile_options.use_rapl = !flags.get_bool("profile-no-rapl");
    profile_options.model_watts = tools::profile_model_watts();

    // Generate each dataset once; cells share the pinned graph.
    std::map<std::string, graph::CsrGraph> graphs;
    for (const char* dataset : {"road", "rmat"})
      graphs.emplace(dataset, make_bench_graph(dataset, full));
    for (const auto& [name, g] : graphs)
      std::printf("bench: %s graph: %llu vertices, %llu edges\n", name.c_str(),
                  static_cast<unsigned long long>(g.num_vertices()),
                  static_cast<unsigned long long>(g.num_edges()));

    std::vector<CellResult> results;
    for (const Cell& cell : make_matrix()) {
      const CellResult r = measure_cell(cell, graphs.at(cell.dataset), runs,
                                        warmup, slowdown, profile_options);
      std::printf(
          "bench: %-24s median %.4fs (spread %.1f%%), %.2fM edges/s, "
          "%.2f J (%s)\n",
          r.cell.name.c_str(), r.median_seconds, r.spread * 100.0,
          r.edges_per_second / 1e6, r.energy_joules,
          r.energy_backend.c_str());
      results.push_back(r);
    }

    ServeBench serve_bench;
    ServeBench serve_mmap_bench;
    if (flags.get_bool("serve")) {
      util::ThreadPool::set_global_threads(1);  // workers provide parallelism
      serve_bench = measure_serve(graphs.at("road"), full);
      std::printf(
          "bench: serve                    %.0f qps (p50 %.2fms, p95 %.2fms, "
          "p99 %.2fms), %llu/%llu ok, %llu cache hits\n",
          serve_bench.qps, serve_bench.latency_ms_p50,
          serve_bench.latency_ms_p95, serve_bench.latency_ms_p99,
          static_cast<unsigned long long>(serve_bench.completed),
          static_cast<unsigned long long>(serve_bench.queries),
          static_cast<unsigned long long>(serve_bench.cache_hits));
      std::printf(
          "bench: serve rss                %.1f MB resident "
          "(%.1f MB anon, %.1f MB file; graph heap %.1f MB)\n",
          serve_bench.rss.vm_rss_mb, serve_bench.rss.anon_mb,
          serve_bench.rss.file_mb, serve_bench.graph_heap_mb);
      serve_mmap_bench = measure_serve_mmap(graphs.at("road"), full);
      std::printf(
          "bench: serve (mmap graph)       %.0f qps, %.1f MB mapped "
          "shared — rss %.1f MB anon / %.1f MB file (N workers ~ 1x "
          "graph RSS)\n",
          serve_mmap_bench.qps, serve_mmap_bench.mapped_mb,
          serve_mmap_bench.rss.anon_mb, serve_mmap_bench.rss.file_mb);
    }

    MultiSourceBench multi_bench;
    if (flags.get_bool("multi-source")) {
      multi_bench = measure_multi_source(graphs, runs, warmup);
      for (const MultiSourceBench::Row& row : multi_bench.rows)
        std::printf(
            "bench: multi-source %-12s seq %.4fs, independent %.4fs "
            "(%.2fx)\n",
            row.dataset.c_str(), row.sequential_seconds,
            row.independent_seconds,
            row.independent_seconds > 0.0
                ? row.sequential_seconds / row.independent_seconds
                : 0.0);
    }

    if (const std::string out = flags.get_string("out"); !out.empty()) {
      std::ostringstream stream;
      write_bench_json(stream, matrix, runs, warmup, slowdown, results,
                       serve_bench, serve_mmap_bench, multi_bench);
      stream << '\n';
      // Atomic so a crash or full disk mid-write can never leave a
      // truncated baseline that later runs would "regress" against.
      sssp::util::atomic_write_file(out, stream.str());
      std::printf("bench: wrote %s (%zu cells)\n", out.c_str(),
                  results.size());
    }

    if (const std::string baseline = flags.get_string("baseline");
        !baseline.empty()) {
      const int regressions = compare_against_baseline(
          baseline, flags.get_double("threshold"), results);
      if (regressions > 0) {
        std::fprintf(stderr, "bench: %d regression(s) against %s\n",
                     regressions, baseline.c_str());
        return sssp::tools::kExitBenchRegression;
      }
      std::printf("bench: no regressions against %s\n", baseline.c_str());
    }
    return 0;
  } catch (const sssp::util::DiskFullError& error) {
    std::fprintf(stderr, "bench_tool: %s\n", error.what());
    return sssp::tools::kExitDiskFull;
  } catch (const sssp::res::ResourceError& error) {
    std::fprintf(stderr, "bench_tool: %s\n", error.what());
    return sssp::tools::kExitResourceBudget;
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "bench_tool: out of memory\n");
    return sssp::tools::kExitResourceBudget;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_tool: %s\n", error.what());
    return 1;
  }
}
