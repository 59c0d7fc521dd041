// perfbench — the repository's end-to-end benchmark (perfbench/README.md).
//
//   perfbench --generate --workload W --seed N [--size full|small]
//             --cache-dir D --pins P
//       Generates the workload graph into the cache (once per seed) and
//       checks input fingerprints against the pins file.
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--size full|small] --cache-dir D --pins P [--trace-out F]
//       Loads the cached graph and measures for S seconds. The last line
//       of standard output is one JSON object: the end-to-end metrics
//       with --trace 0, the per-layer metrics with --trace 1.
//
// perfbench/run.py builds this program and runs both steps.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "graph/binary_io.hpp"
#include "inputs.hpp"
#include "ref_sweep.hpp"
#include "spans.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace perfbench;
using sssp::graph::CsrGraph;

// The global pool is pinned so runs on any host use the same schedule:
// 4 threads is the reference host's nproc and the library's default
// there.
constexpr std::size_t kThreads = 4;
// Sources per workload. Self-tuning's cost varies 4x across R-MAT
// sources and by a quarter across road sources; these counts hold the
// per-seed mean of the device model within a few percent.
std::size_t source_count(const std::string& workload) {
  return workload == "rmat" ? 128 : 64;
}
constexpr int kSetupRepeats = 5;
// The pinned seed whose small graphs every generation step re-checks.
constexpr std::uint64_t kPinnedSeed = 1;

struct Args {
  std::map<std::string, std::string> values;
  bool generate = false;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it != values.end() ? it->second : fallback;
  }
  std::string require(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--generate") {
      args.generate = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      args.values[arg.substr(2)] = argv[++i];
    } else {
      throw std::invalid_argument("unexpected argument '" + arg + "'");
    }
  }
  return args;
}

GraphSpec spec_from(const Args& args) {
  GraphSpec spec;
  spec.workload = args.require("workload");
  spec.size = args.get("size", "full");
  spec.seed = std::stoull(args.require("seed"));
  return spec;
}

std::string graph_path(const Args& args, const GraphSpec& spec) {
  return args.require("cache-dir") + "/" + spec.label() + ".tsssp";
}

int generate(const Args& args) {
  const std::string pins = args.require("pins");
  for (const char* workload : {"road", "rmat"}) {
    const GraphSpec guard{workload, "small", kPinnedSeed};
    if (!check_pinned(pins, guard, fingerprint(generate_graph(guard))))
      throw std::runtime_error("pins file lacks " + guard.label());
  }
  const GraphSpec spec = spec_from(args);
  const std::string path = graph_path(args, spec);
  if (std::filesystem::exists(path) &&
      std::filesystem::exists(path + ".fnv")) {
    std::printf("cached %s\n", path.c_str());
    return 0;
  }
  const CsrGraph g = generate_graph(spec);
  const std::uint64_t fp = fingerprint(g);
  const bool pinned = check_pinned(pins, spec, fp);
  std::filesystem::create_directories(args.require("cache-dir"));
  sssp::graph::save_binary_file(g, path);
  std::ofstream(path + ".fnv") << std::hex << fp << "\n";
  std::printf("generated %s: %zu vertices, %zu edges, fingerprint %016llx%s\n",
              spec.label().c_str(), g.num_vertices(), g.num_edges(),
              static_cast<unsigned long long>(fp),
              pinned ? " (matches pin)" : "");
  return 0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

// Metrics in output order, printed as `name = value unit  (detail)` and
// collected for the final JSON line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& detail) {
    std::printf("  %-40s %14.6f %-6s %s\n", name.c_str(), value, unit.c_str(),
                detail.c_str());
    metrics_.push_back({name, value, unit});
  }
  void add_ref(const std::string& name, const Series& s, double q) {
    char detail[160];
    std::snprintf(detail, sizeof detail, "(p%.0f of n=%zu; raw %.3f ms)",
                  q * 100, s.size(), quantile(s.raw_ms, q));
    add(name, quantile(s.ref, q), "ref", detail);
  }
  std::string json(const Tally& tally) const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << tally.attempted
        << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      out << (i ? ", " : "") << "\"" << metrics_[i].name
          << "\": {\"value\": " << metrics_[i].value << ", \"unit\": \""
          << metrics_[i].unit << "\"}";
    out << "}}";
    return out.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

std::string count(const char* what, std::size_t n) {
  return "(" + std::string(what) + " of n=" + std::to_string(n) + ")";
}



struct Setup {
  std::vector<double> setup_s, load_ms;
  std::unique_ptr<CsrGraph> graph;
  std::unique_ptr<sssp::serve::Server> server;
};

// Set-up, repeated: load the cached graph, construct and start the
// server. The last repetition's graph and server are the ones used.
Setup set_up(const std::string& path, Spans& spans) {
  Setup setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (setup.server) setup.server->drain();
    setup.server.reset();
    setup.graph.reset();
    const Clock::time_point start = Clock::now();
    {
      const ScopedSpan span(&spans, "graph.load", "graph");
      setup.graph =
          std::make_unique<CsrGraph>(sssp::graph::load_binary_file(path));
    }
    const Clock::time_point loaded = Clock::now();
    {
      const ScopedSpan span(&spans, "serve.start", "serve");
      setup.server = std::make_unique<sssp::serve::Server>(
          *setup.graph, sssp::serve::ServerOptions{});
      setup.server->start();
    }
    setup.setup_s.push_back(ms_between(start, Clock::now()) / 1e3);
    setup.load_ms.push_back(ms_between(start, loaded));
  }
  return setup;
}

void report_end_to_end(Report& report, const Setup& setup,
                       const SolveStats& solve, const ServeStats& serve,
                       const std::string& sources) {
  std::printf("end-to-end metrics:\n");
  report.add("setup_s", quantile(setup.setup_s, 0.5), "s",
             count("median", setup.setup_s.size()));
  report.add("peak_rss_mb", peak_rss_mb(), "MB", "(VmHWM at end of run)");
  report.add_ref("near_far_p50", solve.near_far, 0.5);
  report.add_ref("near_far_p90", solve.near_far, 0.9);
  report.add_ref("self_tuning_p50", solve.self_tuning, 0.5);
  report.add_ref("delta_stepping_p50", solve.delta_stepping, 0.5);
  report.add_ref("delta_stepping_p90", solve.delta_stepping, 0.9);
  report.add_ref("batch8_p50", solve.batch8, 0.5);
  report.add("device_time_ms", solve.device_time_ms, "ms",
             "(modeled TK1, mean of " + sources + ")");
  report.add("device_energy_mj", solve.device_energy_mj, "mJ",
             "(modeled TK1, mean of " + sources + ")");
  report.add_ref("hit_p50", serve.hit, 0.5);
  report.add_ref("miss_p50", serve.miss, 0.5);
  report.add_ref("saturated_per_query", serve.saturated, 0.5);
  // A diagnostic, not gated: self-tuning's tail on road rides on host
  // scheduling stalls of its many fork/join phases (perfbench/README.md).
  std::printf("diagnostic:\n");
  Report diagnostics;
  diagnostics.add_ref("self_tuning_p90", solve.self_tuning, 0.9);
}

void report_layers(Report& report, const Setup& setup, const SolveStats& solve,
                   const ServeStats& serve, const ProbeStats& probes,
                   const RefSweep& ref, const Spans& spans,
                   const std::string& sources) {
  const CsrGraph& g = *setup.graph;
  std::printf("span self time by layer (%zu spans):", spans.size());
  const std::map<std::string, double> self = spans.self_ms_by_layer();
  for (const auto& [layer, ms] : self)
    std::printf(" %s %.1f ms", layer.c_str(), ms);
  std::printf("\nper-layer metrics:\n");
  const double csr_mb = static_cast<double>(g.offsets().size_bytes() +
                                            g.targets().size_bytes() +
                                            g.weights().size_bytes()) /
                        (1024.0 * 1024.0);
  const std::string per_sweep = "(per sweep, median of 4; raw ";
  report.add("graph.load_heap_ms", quantile(setup.load_ms, 0.5), "ms",
             count("median", setup.load_ms.size()));
  report.add("graph.load_mmap_ms", probes.load_mmap_ms, "ms", "(median of 5)");
  report.add("graph.csr_mb", csr_mb, "MB", "(computed from array sizes)");
  report.add("frontier.advance_ref", probes.advance_ref, "ref",
             per_sweep + std::to_string(probes.advance_ms) + " ms)");
  report.add("frontier.bisect_ref", probes.bisect_ref, "ref",
             per_sweep + std::to_string(probes.bisect_ms) + " ms)");
  report.add("frontier.edges", probes.engine_edges, "count",
             "(sum of X2 per sweep)");
  report.add("frontier.bytes_mb", probes.engine_bytes_mb, "MB",
             "(computed, per sweep)");
  report.add("core.controller_share", probes.controller_share, "ratio",
             "(controller time over solve time, 16 sources)");
  const std::string mean = "(mean of " + sources + ")";
  report.add("core.iterations", solve.self_tuning_iterations, "count", mean);
  report.add("core.relax_per_reached", solve.self_tuning_relax_per_reached,
             "ratio", mean);
  report.add("sssp.near_far.iterations", solve.near_far_iterations, "count",
             mean);
  report.add("sssp.near_far.relax_per_reached",
             solve.near_far_relax_per_reached, "ratio", mean);
  report.add("sssp.delta_stepping.relax_per_reached",
             solve.delta_stepping_relax_per_reached, "ratio", mean);
  report.add_ref("core.self_tuning_p90", solve.self_tuning, 0.9);
  report.add_ref("verify.certify_ref", solve.certify, 0.5);
  report.add_ref("serve.overhead_ref", serve.overhead, 0.5);
  report.add("serve.parse_us", probes.parse_us, "us", "(per request line)");
  report.add("serve.format_us", probes.format_us, "us", "(per response)");
  report.add("serve.queue_ms_p50", quantile(serve.queue_ms_b, 0.5), "ms",
             count("p50", serve.queue_ms_b.size()));
  report.add("serve.coalesced_share", serve.coalesced_share, "ratio",
             "(phase B)");
  report.add("serve.hit_ratio", serve.hit_ratio, "ratio",
             "(of " + std::to_string(serve.queries) + " queries)");
  report.add_ref("serve.hit_p90", serve.hit, 0.9);
  report.add_ref("serve.miss_p90", serve.miss, 0.9);
  report.add("sim.replay_ms", quantile(solve.replay_ms, 0.5), "ms",
             count("median", solve.replay_ms.size()));
  const std::vector<double>& refs = ref.points_ms();
  report.add("ref.sweep_ms_p50", quantile(refs, 0.5), "ms",
             count("p50", refs.size()));
  report.add("ref.sweep_ms_min", quantile(refs, 0.0), "ms",
             count("min", refs.size()));
  report.add("ref.sweep_ms_max", quantile(refs, 1.0), "ms",
             count("max", refs.size()));
  for (const auto& [layer, ms] : self)
    report.add("span." + layer + ".self_ms", ms, "ms",
               "(traced run total; concurrent queries add up)");
}

int measure(const Args& args) {
  const GraphSpec spec = spec_from(args);
  const double seconds = std::stod(args.require("seconds"));
  const bool trace = args.require("trace") == "1";
  const std::string path = graph_path(args, spec);
  if (seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  sssp::util::ThreadPool::set_global_threads(kThreads);
  Spans spans(trace);
  Setup setup = set_up(path, spans);
  const CsrGraph& graph = *setup.graph;

  // Pinned inputs: the loaded graph is the one generated for this seed.
  const std::uint64_t fp = fingerprint(graph);
  std::uint64_t recorded = 0;
  std::ifstream(path + ".fnv") >> std::hex >> recorded;
  if (fp != recorded)
    throw std::runtime_error("cached graph " + path +
                             " does not match its recorded fingerprint");
  const bool pinned = check_pinned(args.require("pins"), spec, fp);

  RefSweep ref(graph, kThreads);
  Context ctx;
  ctx.workload = spec.workload;
  ctx.graph = &graph;
  ctx.seed = spec.seed;
  ctx.sources = pick_sources(graph, spec.seed, source_count(spec.workload));
  ctx.ref = &ref;
  std::printf("perfbench %s seed %llu: %zu vertices, %zu edges, fingerprint "
              "%016llx%s, %zu threads, %.0f s%s\n",
              spec.workload.c_str(), static_cast<unsigned long long>(spec.seed),
              graph.num_vertices(), graph.num_edges(),
              static_cast<unsigned long long>(fp), pinned ? " (pinned)" : "",
              kThreads, seconds, trace ? ", traced" : "");

  // Time split: solves 60%, phase A 15%, phase B 25%. The traced run
  // first spends half the solve budget untraced, for the overhead.
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](double share) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds * share));
  };
  const double rss_setup = peak_rss_mb();
  SolveStats untraced;
  if (trace) untraced = run_solve_phase(ctx, at(0.3), false);
  ctx.spans = trace ? &spans : nullptr;
  const SolveStats solve = run_solve_phase(ctx, at(0.6), true);
  const double rss_solve = peak_rss_mb();
  const ServeStats serve =
      run_serve_phases(ctx, *setup.server, at(0.75), at(1.0));
  ProbeStats probes;
  if (trace) probes = run_layer_probes(ctx, path, serve);
  setup.server->drain();

  std::printf("VmHWM after setup %.1f MB, solves %.1f MB, serving %.1f MB\n",
              rss_setup, rss_solve, peak_rss_mb());
  const std::vector<double>& refs = ref.points_ms();
  std::printf("ref.sweep_ms p50 %.4f min %.4f max %.4f over %zu ref passes\n",
              quantile(refs, 0.5), quantile(refs, 0.0), quantile(refs, 1.0),
              refs.size());
  Report report;
  const std::string sources = std::to_string(ctx.sources.size()) + " sources";
  if (!trace) {
    report_end_to_end(report, setup, solve, serve, sources);
  } else {
    std::printf("tracing overhead, traced minus untraced p50 (ref):");
    for (const auto& [name, traced, plain] :
         {std::tuple{"near_far", &solve.near_far, &untraced.near_far},
          std::tuple{"self_tuning", &solve.self_tuning, &untraced.self_tuning},
          std::tuple{"delta_stepping", &solve.delta_stepping,
                     &untraced.delta_stepping}})
      std::printf(" %s %+.4f", name,
                  quantile(traced->ref, 0.5) - quantile(plain->ref, 0.5));
    std::printf("\n");
    report_layers(report, setup, solve, serve, probes, ref, spans, sources);
    if (const std::string out = args.get("trace-out", ""); !out.empty()) {
      spans.write_chrome_trace(out);
      std::printf("wrote %zu spans to %s\n", spans.size(), out.c_str());
    }
  }
  std::printf("operations: %llu attempted, %llu failed (ref checksum %llx)\n",
              static_cast<unsigned long long>(ctx.tally.attempted),
              static_cast<unsigned long long>(ctx.tally.failed),
              static_cast<unsigned long long>(ref.sink()));
  std::printf("%s\n", report.json(ctx.tally).c_str());
  std::fflush(stdout);
  return ctx.tally.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // One malloc arena: with glibc's per-thread arenas, how much freed
  // memory stays resident depends on which thread ran which solve, and
  // peak_rss_mb moved by a tenth between runs of one seed. With one
  // arena the high-water mark tracks live memory.
  mallopt(M_ARENA_MAX, 1);
#endif
  try {
    const Args args = parse_args(argc, argv);
    return args.generate ? generate(args) : measure(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
