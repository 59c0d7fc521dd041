// The host profiling front end: owns the capability probes
// (perf_event counters, RAPL energy), attributes counter/energy deltas
// to the pipeline phases marked by SSSP_PROF_PHASE, samples per
// controller iteration, and assembles the RunProfile that the run
// report serializes as its `energy` and `profile` blocks.
//
// Fallback ladder (recorded in the report, never fatal):
//   energy:   RAPL sysfs → calibrated model watts × wall time
//   counters: perf_event_open → wall-clock only
//
// Gating mirrors the obs layer (docs/OBSERVABILITY.md): when no
// --profile flag armed the profiler, every probe site reduces to one
// relaxed atomic load and a predictable branch, so instrumented code
// pays ~nothing (bench_tool --overhead-check asserts ≤1% on the
// advance sweep).
//
// Phase attribution is *exclusive*: counters and the clock are read at
// every scope enter/exit, and each interval is charged to the
// innermost phase active during it (gaps go to "(untracked)"). That
// makes per-phase values sum to the whole profiled span — the property
// the attribution tests check — even though the trace spans these
// scopes shadow are nested (iteration contains advance, bisect etc.).
//
// Threading: phases and iteration samples are recorded only on the
// thread that called start() — the orchestrating thread, which is
// where the engine's phase spans already live; scopes entered on other
// threads disengage silently. Hardware counters still cover worker
// threads via perf_event inherit (threads spawned after start();
// docs/OBSERVABILITY.md notes the pre-existing-pool caveat).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "prof/energy_series.hpp"
#include "prof/perf_counters.hpp"
#include "prof/rapl.hpp"
#include "prof/report.hpp"

namespace sssp::prof {

namespace detail {
extern std::atomic<bool> g_profiling_enabled;
}

// The global arm/disarm gate, mirroring obs::metrics_enabled().
inline bool profiling_enabled() noexcept {
  return detail::g_profiling_enabled.load(std::memory_order_relaxed);
}

class Profiler {
 public:
  struct Options {
    bool use_perf = true;  // probe perf_event counters
    bool use_rapl = true;  // probe RAPL before falling back to model
    // Watts for the model fallback; <= 0 picks a generic default.
    // Tools calibrate this from sim::board_power (tool_common.hpp).
    double model_watts = 0.0;
    // Injectable for tests; "" = /sys/class/powercap.
    std::string rapl_root;
  };

  static Profiler& global();

  // Probes capabilities, resets all state, marks the calling thread as
  // the attribution owner, and flips profiling_enabled() on.
  void start(const Options& options);
  void start() { start(Options()); }

  // Finalizes totals (closing any still-open phases into their
  // accumulators) and flips profiling_enabled() off. Idempotent.
  void stop();

  bool running() const noexcept { return running_; }

  // Phase scoping — called via SSSP_PROF_PHASE, not directly.
  // `name` must outlive the scope (string literals at the call sites).
  // Returns false (no-op) off the owner thread or when not running;
  // callers must skip the matching exit_phase() then.
  bool enter_phase(const char* name);
  void exit_phase();

  // Records one controller-iteration sample (owner thread only):
  // counter and energy deltas since the previous sample. The retained
  // history is decimated (stride doubling) past a size cap so long
  // runs stay bounded.
  void sample_iteration(std::uint64_t iteration);

  // Snapshot of the profile; complete after stop(), best-effort while
  // running. Safe only on the owner thread (like everything above).
  RunProfile report() const;

  // The live energy timeline (step-function watts per sampled
  // interval) for sim/energy_metrics interop and tests.
  const EnergySeries& energy_series() const noexcept { return series_; }

 private:
  Profiler() = default;

  struct Transition {  // everything read at a phase boundary
    double seconds;
    double joules;
    CounterValues counters;
  };
  Transition read_now();
  // Charges [last_transition_, now] to the innermost open phase.
  void charge_interval(const Transition& now);
  double cumulative_joules();

  Options options_;
  bool running_ = false;
  std::thread::id owner_;

  PerfCounterGroup perf_;
  RaplReader rapl_{""};
  RaplEnergy rapl_last_;
  EnergyBackend energy_backend_ = EnergyBackend::kNone;
  CounterBackend counter_backend_ = CounterBackend::kWallClock;
  std::string rapl_status_;
  double model_watts_ = 0.0;

  double start_seconds_ = 0.0;
  double stop_seconds_ = 0.0;
  CounterValues start_counters_;
  CounterValues stop_counters_;
  double total_joules_ = 0.0;  // cumulative since start()

  Transition last_transition_{};
  std::vector<const char*> phase_stack_;
  std::map<std::string, PhaseProfile> phases_;

  Transition last_iteration_mark_{};
  std::vector<IterationSample> iterations_;
  std::uint64_t iteration_stride_ = 1;
  std::uint64_t iteration_calls_ = 0;

  EnergySeries series_;
};

// RAII phase scope; engages only when profiling is armed and we are on
// the profiler's owner thread.
class PhaseScope {
 public:
  explicit PhaseScope(const char* name) {
    if (profiling_enabled())
      engaged_ = Profiler::global().enter_phase(name);
  }
  ~PhaseScope() {
    if (engaged_) Profiler::global().exit_phase();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  bool engaged_ = false;
};

#define SSSP_PROF_CONCAT_IMPL(a, b) a##b
#define SSSP_PROF_CONCAT(a, b) SSSP_PROF_CONCAT_IMPL(a, b)

// Attributes the enclosing scope's counters/energy to `name`. Place
// alongside the matching SSSP_TRACE_SPAN; near-zero cost when
// profiling is disarmed.
#define SSSP_PROF_PHASE(name) \
  ::sssp::prof::PhaseScope SSSP_PROF_CONCAT(sssp_prof_phase_, __LINE__)(name)

}  // namespace sssp::prof
