// Deterministic failpoint injection framework (docs/ROBUSTNESS.md).
//
// A failpoint is a named site in the code where a fault can be forced at
// runtime: a NaN observation into the controller's SGD models, a short
// read in a graph loader, a power-meter dropout in the simulator. Sites
// are declared inline with the SSSP_FAILPOINT macro:
//
//   if (SSSP_FAILPOINT("controller.x4.nan"))
//     x4 = std::numeric_limits<double>::quiet_NaN();
//
// and activated from outside the process:
//
//   SSSP_FAILPOINT=controller.x4.nan            fire on every hit
//   SSSP_FAILPOINT=sgd.observe.nan=0.25         fire with probability 0.25
//   SSSP_FAILPOINT=sgd.observe.nan=0.25,7       ... seeded with 7
//   SSSP_FAILPOINT=graph.binary.bit_flip=3      fire on every 3rd hit
//   SSSP_FAILPOINT=a.nan;b.drop=0.5             several sites at once
//
// or programmatically via FailpointRegistry::arm(spec). The same spec
// grammar backs the tools' --failpoint flag.
//
// Cost discipline mirrors the obs layer (metrics.hpp): with the global
// gate off — the default — every SSSP_FAILPOINT site evaluates to one
// relaxed atomic load plus a branch. Probability mode draws from a
// per-failpoint SplitMix64 stream, so a (spec, seed) pair replays the
// same fire pattern on every run: injected-fault test failures are
// reproducible by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sssp::fault {

// Global gate. Off by default; arming any failpoint turns it on, and
// disarm_all() turns it back off.
bool faults_enabled() noexcept;

class Failpoint {
 public:
  enum class Mode : std::uint8_t {
    kDisarmed,     // never fires
    kAlways,       // fires on every hit
    kProbability,  // fires with probability p per hit (seeded stream)
    kEveryNth,     // fires on hits N, 2N, 3N, ...
  };

  explicit Failpoint(std::string name) : name_(std::move(name)) {}
  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

  // Counts the hit and decides whether the fault fires. The disarmed
  // fast path is one relaxed load + branch (no hit counting: a disarmed
  // site must cost nothing on hot paths).
  bool should_fire() noexcept {
    if (mode_.load(std::memory_order_relaxed) == Mode::kDisarmed)
      return false;
    return evaluate();
  }

  // Arming restarts the hit and fire counts; disarm() keeps them.
  void arm(Mode mode, double probability = 1.0, std::uint64_t period = 1,
           std::uint64_t seed = 0);
  void disarm();

  const std::string& name() const noexcept { return name_; }
  Mode mode() const noexcept { return mode_.load(std::memory_order_relaxed); }
  // Hits/fires are only counted while armed.
  std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t fires() const noexcept {
    return fires_.load(std::memory_order_relaxed);
  }

  // Snapshot / restore of the mutable runtime state (counters + stream
  // position). restore_runtime leaves the arming untouched.
  struct FailpointRuntime runtime() const;
  void restore_runtime(const struct FailpointRuntime& runtime);

 private:
  bool evaluate() noexcept;

  const std::string name_;
  std::atomic<Mode> mode_{Mode::kDisarmed};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> fires_{0};
  // Armed-path state (mutex-guarded; armed sites are off the fast path
  // by definition, so contention cost is irrelevant).
  mutable std::mutex mu_;
  double probability_ = 1.0;
  std::uint64_t period_ = 1;
  std::uint64_t rng_state_ = 0;
};

struct FailpointStatus {
  std::string name;
  Failpoint::Mode mode;
  std::uint64_t hits;
  std::uint64_t fires;
};

// Serializable mid-run failpoint state (checkpoint/resume): hit/fire
// counters and the probability stream's position. A resumed run that
// restores this continues the exact fire pattern the original (spec,
// seed) pair would have produced — every-Nth periods and probability
// draws stay aligned with the interrupted run. Arming (mode/probability/
// period) is intentionally *not* restored: it comes from the spec the
// resuming process arms itself, so the stored mode is only used to
// cross-check.
struct FailpointRuntime {
  std::string name;
  std::uint8_t mode = 0;  // Failpoint::Mode at capture, for cross-checks
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
  std::uint64_t rng_state = 0;

  friend bool operator==(const FailpointRuntime&,
                         const FailpointRuntime&) = default;
};

class FailpointRegistry {
 public:
  FailpointRegistry() = default;
  FailpointRegistry(const FailpointRegistry&) = delete;
  FailpointRegistry& operator=(const FailpointRegistry&) = delete;

  // Find-or-create; returned references remain valid for the registry's
  // lifetime (failpoints are never removed).
  Failpoint& failpoint(std::string_view name);

  // Arms one "name[=prob|period][,seed]" spec (grammar above). Throws
  // std::invalid_argument on a malformed spec. Turns the global gate on.
  void arm(std::string_view spec);
  // Arms a ';'-separated spec list, e.g. the SSSP_FAILPOINT env value or
  // a --failpoint flag. Empty segments are ignored.
  void arm_list(std::string_view specs);
  // Reads SSSP_FAILPOINT from the environment (no-op when unset).
  void arm_from_env();

  // Disarms every failpoint and turns the global gate off. Hit/fire
  // counters are preserved for post-run inspection.
  void disarm_all();

  // Status of every registered failpoint (armed or not), name-sorted.
  std::vector<FailpointStatus> status() const;
  // Runtime snapshots of every *armed* failpoint, name-sorted (the
  // checkpoint payload — disarmed sites carry no stream to preserve).
  std::vector<FailpointRuntime> capture_runtime() const;
  // Applies captured counters/streams by name (find-or-create). Arming
  // is not changed: the resuming process re-arms from its own specs.
  void restore_runtime(const std::vector<FailpointRuntime>& runtimes);
  // Total fires across all failpoints, each counted since it was last
  // armed.
  std::uint64_t total_fires() const;

  // Process-wide registry used by SSSP_FAILPOINT sites.
  static FailpointRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Failpoint>, std::less<>> points_;
};

namespace detail {
void set_faults_enabled(bool enabled) noexcept;
}

// Failpoint site macro. Evaluates to true when the named fault should
// fire here and now. The registry lookup runs once per site (function-
// local static); the steady-state disabled cost is the faults_enabled()
// relaxed load + branch.
#define SSSP_FAILPOINT(name_literal)                                       \
  (::sssp::fault::faults_enabled() && [] {                                 \
    static ::sssp::fault::Failpoint& sssp_fault_fp =                       \
        ::sssp::fault::FailpointRegistry::global().failpoint(name_literal); \
    return sssp_fault_fp.should_fire();                                    \
  }())

}  // namespace sssp::fault
