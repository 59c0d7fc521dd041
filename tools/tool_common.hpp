// Shared helpers for the CLI tools: extension-based graph loading and
// saving across every supported format, the observability flag plumbing
// (--metrics-out / --metrics-format / --trace-out), fault-injection
// arming (--failpoint / SSSP_FAILPOINT), and the structured-IO-error
// exit-code mapping (docs/ROBUSTNESS.md).
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "fault/failpoint.hpp"
#include "graph/binary_io.hpp"
#include "graph/csr.hpp"
#include "graph/dimacs.hpp"
#include "graph/edge_list.hpp"
#include "graph/io_error.hpp"
#include "graph/matrix_market.hpp"
#include "graph/mmap_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prof/profiler.hpp"
#include "res/budget.hpp"
#include "sim/device.hpp"
#include "sim/power_model.hpp"
#include "util/atomic_file.hpp"
#include "util/flags.hpp"
#include "util/run_control.hpp"
#include "util/thread_pool.hpp"

namespace sssp::tools {

inline bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// .bin (tunesssp binary cache), .gr (DIMACS), .mtx (MatrixMarket),
// .txt/.el (edge list).
inline graph::CsrGraph load_any_graph(const std::string& path) {
  if (ends_with(path, ".bin")) return graph::load_binary_file(path);
  if (ends_with(path, ".gr")) return graph::load_dimacs_file(path);
  if (ends_with(path, ".mtx")) return graph::load_matrix_market_file(path);
  if (ends_with(path, ".txt") || ends_with(path, ".el"))
    return graph::load_edge_list_file(path);
  throw std::runtime_error("unknown input format: " + path +
                           " (expected .bin/.gr/.mtx/.txt/.el)");
}

// A resident graph plus the storage that backs it: either an owning
// heap CsrGraph or a zero-copy view into a shared read-only mapping of
// the v2 binary cache (graph/mmap_cache.hpp). `graph()` is valid for
// the lifetime of this object either way.
struct ResidentGraph {
  graph::CsrGraph heap;       // owning mode
  graph::MmapGraph mapped;    // mmap mode
  bool is_mapped = false;

  const graph::CsrGraph& graph() const noexcept {
    return is_mapped ? mapped.graph() : heap;
  }
};

// Loads a graph for long-lived serving. mode: "auto" maps v2 .bin
// caches and heap-loads everything else; "on" requires a mappable v2
// cache (throws otherwise); "off" always heap-loads. With the mmap
// path, N server processes opening the same cache share one physical
// copy of the arrays through the page cache.
inline ResidentGraph load_resident_graph(const std::string& path,
                                         const std::string& mode = "auto") {
  if (mode != "auto" && mode != "on" && mode != "off")
    throw util::FlagError("--mmap expects auto, on, or off (got '" + mode +
                           "')");
  ResidentGraph resident;
  const bool mappable =
      ends_with(path, ".bin") && graph::is_mappable_cache(path);
  if (mode == "on" && !mappable)
    throw std::runtime_error(
        "--mmap on requires a v2 binary graph cache (.bin): " + path);
  if (mode != "off" && mappable) {
    if (mode == "on") {
      resident.mapped = graph::MmapGraph::open(path);
      resident.is_mapped = true;
      return resident;
    }
    // auto: a cache that fails to map — checksum rot, truncation, or a
    // SIGBUS caught by the mmap layer's trampoline — degrades to the
    // heap loader instead of failing the tool. The heap loader
    // re-verifies the same checksums, so real rot still surfaces as a
    // structured error; only mapping-specific failures are recovered.
    try {
      resident.mapped = graph::MmapGraph::open(path);
      resident.is_mapped = true;
      return resident;
    } catch (const graph::GraphIoError& e) {
      std::fprintf(stderr,
                   "mmap of %s failed (%s); falling back to heap loader\n",
                   path.c_str(), e.what());
      if (obs::metrics_enabled())
        obs::MetricsRegistry::global()
            .counter("graph.mmap.fallback_heap")
            .add(1);
    }
  }
  resident.heap = load_any_graph(path);
  return resident;
}

// .bin or .gr (the formats with writers).
inline void save_any_graph(const graph::CsrGraph& g, const std::string& path) {
  if (ends_with(path, ".bin")) {
    graph::save_binary_file(g, path);
  } else if (ends_with(path, ".gr")) {
    graph::save_dimacs_file(g, path, "written by tunesssp tools");
  } else {
    throw std::runtime_error("unknown output format: " + path +
                             " (expected .bin/.gr)");
  }
}

// Registers the shared observability flags. Call before handle_help().
inline void define_observability_flags(util::Flags& flags) {
  flags.define("metrics-out", "",
               "write the metrics registry here after the run");
  flags.define("metrics-format", "json",
               "metrics export format: json | prometheus");
  flags.define("trace-out", "",
               "write a Chrome trace-event JSON here (open in Perfetto)");
}

// Turns the runtime gates on when the matching --*-out flag was given.
// Must run before the instrumented work starts. Traces stream to the
// output file in batches from the start (docs/OBSERVABILITY.md), so
// soak-length runs never hold the event log in memory.
inline void enable_observability(const util::Flags& flags) {
  if (!flags.get_string("metrics-out").empty())
    obs::set_metrics_enabled(true);
  if (const auto path = flags.get_string("trace-out"); !path.empty()) {
    obs::Tracer::global().open_stream(path);
    obs::set_trace_enabled(true);
  }
}

// Writes whatever sinks were requested; call once after the run.
inline void write_observability_outputs(const util::Flags& flags) {
  if (const auto path = flags.get_string("metrics-out"); !path.empty()) {
    const std::string format = flags.get_string("metrics-format");
    if (format != "json" && format != "prometheus")
      throw util::FlagError("--metrics-format expects json or prometheus");
    // tmp+fsync+rename: a crash or ENOSPC mid-write must never leave a
    // truncated export for downstream tooling to misparse.
    util::atomic_write_file(path,
                            format == "prometheus"
                                ? obs::MetricsRegistry::global().to_prometheus()
                                : obs::MetricsRegistry::global().to_json() +
                                      "\n");
    std::printf("wrote metrics to %s\n", path.c_str());
  }
  if (const auto path = flags.get_string("trace-out"); !path.empty()) {
    obs::Tracer::global().finish_stream();
    std::printf("wrote trace (%zu events) to %s\n",
                obs::Tracer::global().num_events(), path.c_str());
  }
}

// Registers the host-profiling flags (docs/OBSERVABILITY.md, "Hardware
// profiling & energy"). Call before handle_help().
inline void define_profile_flags(util::Flags& flags) {
  flags.define("profile", "false",
               "measure the run with perf_event counters and RAPL energy, "
               "degrading gracefully (model watts / wall clock) when the "
               "host forbids them; adds 'energy' and 'profile' blocks to "
               "--report-out");
  flags.define("profile-no-perf", "false",
               "skip the perf_event probe (forces the wall-clock counter "
               "backend; CI uses this for shared-runner stability)");
  flags.define("profile-no-rapl", "false",
               "skip the RAPL probe (forces the model energy backend)");
}

// Watts for the profiler's model fallback, calibrated from the analytic
// board model at a mid-load operating point — the same power model the
// simulator trusts, so model-backend joules are comparable across runs.
inline double profile_model_watts() {
  const sim::DeviceSpec spec = sim::DeviceSpec::jetson_tk1();
  return sim::board_power(spec, spec.max_frequencies(), 0.5, 0.5);
}

// Arms the global profiler when --profile was given; returns true if
// armed. Must run before the instrumented work starts (the calling
// thread becomes the phase-attribution owner).
inline bool enable_profiling(const util::Flags& flags) {
  if (!flags.get_bool("profile")) return false;
  prof::Profiler::Options options;
  options.use_perf = !flags.get_bool("profile-no-perf");
  options.use_rapl = !flags.get_bool("profile-no-rapl");
  options.model_watts = profile_model_watts();
  prof::Profiler::global().start(options);
  return true;
}

// Stops the profiler and prints the one-line summary; returns the
// finished profile. Call after the measured work, before report writing.
inline prof::RunProfile finish_profiling() {
  prof::Profiler& profiler = prof::Profiler::global();
  profiler.stop();
  prof::RunProfile profile = profiler.report();
  std::printf(
      "profile: %.3f s, %.2f J (%.2f W avg, backend %s), counters %s\n",
      profile.wall_seconds, profile.energy.joules,
      profile.energy.average_watts, prof::to_string(profile.energy.backend),
      prof::to_string(profile.counter_backend));
  if (profile.counter_backend == prof::CounterBackend::kPerfEvent &&
      profile.totals.cycles > 0)
    std::printf("profile: IPC %.2f, %.1f LLC misses/k-instr\n",
                static_cast<double>(profile.totals.instructions) /
                    static_cast<double>(profile.totals.cycles),
                1000.0 * static_cast<double>(profile.totals.llc_misses) /
                    static_cast<double>(
                        std::max<std::uint64_t>(1,
                                                profile.totals.instructions)));
  return profile;
}

// Registers the --threads flag. Call before handle_help().
inline void define_threads_flag(util::Flags& flags) {
  flags.define("threads", "0",
               "thread pool size (0 = $SSSP_THREADS or hardware default); "
               "results are bit-identical at any value");
}

// Sizes the global pool from the flag and returns the effective thread
// count (for run reports). Must run before the parallel work starts.
inline std::size_t apply_threads_flag(const util::Flags& flags) {
  const std::int64_t requested = flags.get_int("threads");
  if (requested < 0) throw util::FlagError("--threads must be >= 0");
  util::ThreadPool::set_global_threads(static_cast<std::size_t>(requested));
  return util::ThreadPool::global().size();
}

// Registers the fault-injection flag. Call before handle_help().
inline void define_fault_flags(util::Flags& flags) {
  flags.define("failpoint", "",
               "arm failpoints: 'name[=prob|count[,seed]]', ';'-separated "
               "(also read from $SSSP_FAILPOINT; see docs/ROBUSTNESS.md)");
}

// Arms failpoints from the flag and the SSSP_FAILPOINT environment
// variable. Must run before the instrumented work starts. Malformed
// specs throw std::invalid_argument. Also installs the io.write.*
// fault hook into util/atomic_file — the glue lives in res because
// util sits below fault in the layering.
inline void enable_faults(const util::Flags& flags) {
  res::install_io_failpoints();
  if (const auto spec = flags.get_string("failpoint"); !spec.empty())
    fault::FailpointRegistry::global().arm_list(spec);
  fault::FailpointRegistry::global().arm_from_env();
}

// One line per armed failpoint after the run, so fault-injection runs
// are auditable from the console alone.
inline void print_fault_summary() {
  if (!fault::faults_enabled()) return;
  for (const auto& fp : fault::FailpointRegistry::global().status()) {
    if (fp.mode == fault::Failpoint::Mode::kDisarmed) continue;
    std::printf("failpoint %s: %llu hits, %llu fires\n", fp.name.c_str(),
                static_cast<unsigned long long>(fp.hits),
                static_cast<unsigned long long>(fp.fires));
  }
}

// Structured loader errors map to stable per-class exit codes so shell
// harnesses can distinguish "file missing" from "file corrupt". Usage
// errors use 2 and any other failure 1 (tool convention).
inline int exit_code_for(const graph::GraphIoError& error) {
  switch (error.error_class()) {
    case graph::IoErrorClass::kOpen:
      return 3;
    case graph::IoErrorClass::kParse:
      return 4;
    case graph::IoErrorClass::kTruncated:
      return 5;
    case graph::IoErrorClass::kChecksum:
      return 6;
    case graph::IoErrorClass::kVersion:
      return 7;
    case graph::IoErrorClass::kLimit:
      return 8;
  }
  return 1;
}

// Run-control exit codes continue the table above (README "Exit
// codes"): a run stopped by its wall-clock deadline, the stall
// watchdog, or SIGINT/SIGTERM exits with a distinct code after
// flushing reports; an injected ckpt.* crash exits 12 *without*
// flushing (it simulates process death).
inline constexpr int kExitDeadline = 9;
inline constexpr int kExitStall = 10;
inline constexpr int kExitInterrupted = 11;
inline constexpr int kExitInjectedCrash = 12;
// The result failed certification (or the online invariant auditor
// aborted the run): reports and the flight-recorder dump are flushed
// first so the failure is post-mortemable.
inline constexpr int kExitCertificationFailed = 13;
// 14 is unassigned; exit codes are never renumbered.
// sssp_server: the service never became ready — socket/bind/listen
// failure, bad port, or a graph that failed to load (the loader's
// structured diagnosis and 3-8 class code stay in the stderr message).
// One code for every startup failure lets a supervisor distinguish
// "failed to start" from "started, then failed"
// (docs/ROBUSTNESS.md, docs/SERVING.md).
inline constexpr int kExitServeStartup = 15;
// sssp_server --supervise: the crash-loop circuit breaker tripped — K
// worker crashes inside the W-second window — so the supervisor stopped
// restarting workers, shed the remaining queries, drained, and exited.
// Distinct from 15 ("never became ready") and from 0 ("asked to drain"):
// the orchestrator should treat the deployment, not the process, as bad
// (docs/SERVING.md, "Process model & crash isolation").
inline constexpr int kExitCrashLoop = 16;
// A persistence write hit ENOSPC/EDQUOT (util/atomic_file): the tmp
// file was deleted, the previous artifact (if any) is intact, and no
// partial file exists anywhere. Orchestrators should free disk and
// retry (docs/ROBUSTNESS.md, "Resource budgets & exhaustion").
inline constexpr int kExitDiskFull = 17;
// A resource budget (memory/scratch/fd, res/budget.hpp) refused work
// with no degradation path, or an allocation failed outright
// (std::bad_alloc). State on disk is intact; rerun with a larger
// budget or smaller input.
inline constexpr int kExitResourceBudget = 18;

// Prints the failure in flight and maps it to the exit-code table:
// flag errors (util::FlagError: an unknown flag, or a value that does
// not parse, is out of range or names no accepted choice) are usage
// errors and exit 2, structured loader errors 3-8, a full disk 17, a
// refused budget or std::bad_alloc 18, anything else 1. Call only from a catch block; every tool ends its main with
// `catch (...) { return tools::exit_code_for_failure(); }`, after any
// tool-specific handlers.
inline int exit_code_for_failure() {
  try {
    throw;
  } catch (const util::FlagError& e) {
    std::fprintf(stderr, "error: %s; see --help\n", e.what());
    return 2;
  } catch (const graph::GraphIoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for(e);
  } catch (const util::DiskFullError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitDiskFull;
  } catch (const res::ResourceError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitResourceBudget;
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "error: out of memory\n");
    return kExitResourceBudget;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

inline int exit_code_for_stop(util::StopReason reason) {
  switch (reason) {
    case util::StopReason::kNone:
      return 0;
    case util::StopReason::kInterrupt:
      return kExitInterrupted;
    case util::StopReason::kDeadline:
      return kExitDeadline;
    case util::StopReason::kStall:
      return kExitStall;
  }
  return 1;
}

// Registers the graceful-shutdown flags. Call before handle_help().
inline void define_run_control_flags(util::Flags& flags) {
  flags.define("deadline-ms", "0",
               "wall-clock budget in milliseconds; on expiry the run "
               "checkpoints (if configured), flushes reports, and exits 9 "
               "(0 = none)");
  flags.define("stall-limit", "0",
               "abort when no new distance improves across this many "
               "consecutive iterations: checkpoint, report, exit 10 "
               "(0 = watchdog off)");
}

// Applies the flags to a RunControl. Returns true when any limit was
// armed (callers then install signal handlers and poll the control).
inline bool apply_run_control_flags(const util::Flags& flags,
                                    util::RunControl& control) {
  bool armed = false;
  if (const std::int64_t ms = flags.get_int("deadline-ms"); ms > 0) {
    control.set_deadline(static_cast<double>(ms) / 1000.0);
    armed = true;
  } else if (ms < 0) {
    throw util::FlagError("--deadline-ms must be >= 0");
  }
  if (const std::int64_t limit = flags.get_int("stall-limit"); limit > 0) {
    control.set_stall_limit(static_cast<std::uint64_t>(limit));
    armed = true;
  } else if (limit < 0) {
    throw util::FlagError("--stall-limit must be >= 0");
  }
  return armed;
}

// Registers the verification & post-mortem flags (docs/ROBUSTNESS.md,
// "Verification & post-mortem"). Call before handle_help().
inline void define_verify_flags(util::Flags& flags) {
  flags.define("verify", "true",
               "certify the finished result (O(V+E) certificate check: "
               "edge consistency, tight acyclic parents, exact labels); "
               "exit 13 on failure");
  flags.define("verify-strict", "false",
               "additionally cross-check every label against Dijkstra "
               "(skipped on very large graphs)");
  flags.define("audit-every", "0",
               "run the online invariant audit every N iterations "
               "(self-tuning only; 0 = off; see docs/ROBUSTNESS.md)");
  flags.define("audit-abort", "false",
               "abort at the iteration boundary when an audit trips "
               "(default: quarantine the controller and keep running)");
  flags.define("flight-out", "",
               "write the flight-recorder JSON dump here after the run "
               "(always enables event recording)");
}

// Registers the resource-budget flags (docs/ROBUSTNESS.md, "Resource
// budgets & exhaustion"). Call before handle_help().
inline void define_resource_flags(util::Flags& flags) {
  flags.define("mem-budget-mb", "0",
               "process memory budget for large allocations in MiB "
               "(0 = unlimited; also $SSSP_MEM_BUDGET_MB); oversize work "
               "is rejected or degraded, never OOM-killed");
  flags.define("scratch-budget-mb", "0",
               "scratch-disk budget for checkpoints/spills in MiB "
               "(0 = unlimited; also $SSSP_SCRATCH_BUDGET_MB)");
}

// Applies env defaults then flag overrides to the global budget. Call
// before the instrumented work starts.
inline void apply_resource_flags(const util::Flags& flags) {
  res::configure_from_env();
  auto& budget = res::ResourceBudget::global();
  if (const std::int64_t mb = flags.get_int("mem-budget-mb"); mb > 0)
    budget.set_memory_limit(static_cast<std::uint64_t>(mb) * 1024 * 1024);
  else if (mb < 0)
    throw util::FlagError("--mem-budget-mb must be >= 0");
  if (const std::int64_t mb = flags.get_int("scratch-budget-mb"); mb > 0)
    budget.set_scratch_limit(static_cast<std::uint64_t>(mb) * 1024 * 1024);
  else if (mb < 0)
    throw util::FlagError("--scratch-budget-mb must be >= 0");
}

// Registers the checkpoint/resume flags. Call before handle_help().
inline void define_checkpoint_flags(util::Flags& flags) {
  flags.define("checkpoint-out", "",
               "write crash-consistent checkpoints here (atomic tmp+rename; "
               "docs/ROBUSTNESS.md \"Checkpoint & recovery\")");
  flags.define("checkpoint-every", "0",
               "checkpoint cadence in iterations (0 = only on early stop)");
  flags.define("checkpoint-every-ms", "0",
               "checkpoint cadence in wall-clock milliseconds (0 = off)");
  flags.define("resume", "",
               "resume from this checkpoint file; the run continues the "
               "interrupted trajectory bit-exactly");
}

}  // namespace sssp::tools
