// SelfTuningSssp — the paper's contribution end-to-end (Section 4): the
// near-far pipeline driven by the DeltaController, with the baseline
// bisect-far-queue stage replaced by the rebalancer over a partitioned
// far queue.
//
// Per iteration k:
//   1. advance + filter            (engine)        -> X1, X2, X3
//   2. controller.observe_advance  (train models)
//   3. bisect at delta_k           (engine)        -> X4, spill -> far
//   4. delta_{k+1} = plan_delta    (Eq. 6)
//      rebalance:
//        delta up   -> pull far partitions below delta_{k+1} into frontier
//        delta down -> demote frontier vertices >= delta_{k+1} to far
//      boundary maintenance        (Eq. 7)
//   5. forced progress: if the frontier is empty but live far work
//      remains, jump delta past the nearest live distance (the
//      controller is told via force_delta so the models stay honest).
//
// Controller compute is wall-clock timed and charged to the run (the
// paper reports 50-200 us per second of runtime; EXPERIMENTS.md
// compares).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/controller.hpp"
#include "frontier/engine.hpp"
#include "frontier/far_queue.hpp"
#include "frontier/stats.hpp"
#include "graph/csr.hpp"
#include "sssp/result.hpp"
#include "util/run_control.hpp"

namespace sssp::core {

struct SelfTuningOptions {
  // The parallelism set-point P (required, > 0).
  double set_point = 0.0;
  // 0 seeds delta with the graph's mean edge weight.
  double initial_delta = 0.0;
  // Measure controller wall-clock and charge it to the workload. Off
  // gives bit-deterministic workloads for golden tests.
  bool measure_controller_time = true;
  // --- online invariant auditing (docs/ROBUSTNESS.md) ---
  // Run the verify-layer invariant audit (A1-A4: frontier accounting,
  // Eq. 7 boundary ordering, distance no-regression probes, finite
  // controller state) every N iterations; 0 disables. Each audit is
  // O(probes + partitions), so N = 1 stays well under 2% overhead on
  // non-trivial graphs. Like `control`, this is a host-side knob: it is
  // not serialized into checkpoints, and a resumed run restarts its
  // audit counters.
  std::uint64_t audit_every = 0;
  // On a tripped invariant: false (default) quarantines the controller
  // into the degraded static-delta policy and keeps running; true
  // throws verify::AuditViolation at the iteration boundary (the
  // checkpoint layer persists state before unwinding).
  bool audit_abort = false;
  // Cooperative cancellation, threaded into the engine: deadline /
  // signal / stall requests abort the run mid-iteration with
  // util::StopRequested. Not owned; must outlive the run. Not part of
  // checkpointed state.
  util::RunControl* control = nullptr;
};

// Runs self-tuning SSSP; distances are exact (verified by property
// tests against Dijkstra for arbitrary set-points).
algo::SsspResult self_tuning_sssp(const graph::CsrGraph& graph,
                                  graph::VertexId source,
                                  const SelfTuningOptions& options);

// Stepper form of the same algorithm, for callers that interleave their
// own control between iterations (e.g. the power-feedback loop in
// power_feedback.hpp adjusts the set-point from observed watts). The
// free function above is `while (run.step()) {}` over this class.
class SelfTuningRun {
 public:
  // Complete resumable run state at an iteration boundary: engine
  // arrays, far-queue partitions (boundaries included), controller
  // (both SGD models + health monitor), and the iteration history so a
  // resumed run's result is indistinguishable from an uninterrupted
  // one. Serialized by ckpt::serialize_checkpoint.
  struct Snapshot {
    graph::VertexId source = 0;
    frontier::NearFarEngine::State engine;
    frontier::FarQueue::State far;
    DeltaController::State controller;
    std::vector<frontier::IterationStats> iterations;
    double controller_seconds = 0.0;

    friend bool operator==(const Snapshot&, const Snapshot&) = default;
  };

  // graph must outlive the run. Throws std::invalid_argument on a bad
  // source or non-positive set-point.
  SelfTuningRun(const graph::CsrGraph& graph, graph::VertexId source,
                const SelfTuningOptions& options);
  // Resume construction: rebuilds a run mid-flight from a Snapshot taken
  // at an iteration boundary. `options` must equal the original run's
  // options (the checkpoint layer stores and replays them); the snapshot
  // is validated against the graph (sizes, vertex ranges, queue
  // invariants, model firewalls) and any violation throws
  // std::invalid_argument before the run becomes steppable.
  SelfTuningRun(const graph::CsrGraph& graph, const SelfTuningOptions& options,
                Snapshot&& snapshot);
  ~SelfTuningRun();

  SelfTuningRun(const SelfTuningRun&) = delete;
  SelfTuningRun& operator=(const SelfTuningRun&) = delete;

  // Executes one pipeline iteration; returns false when the run is done
  // (nothing was executed). Iteration stats accumulate in result().
  bool step();
  bool done() const;

  // Retargets the controller mid-run (the power-feedback knob). The new
  // set-point takes effect from the next iteration.
  void set_set_point(double set_point);
  double set_point() const;

  // Live controller/engine state (diagnostics and feedback inputs).
  const DeltaController& controller() const;
  const frontier::IterationStats& last_iteration() const;

  // Iterations executed so far (restored history included on resume).
  std::size_t iterations_completed() const;
  // Monotone total-work counter, the stall watchdog's progress signal.
  std::uint64_t total_improving_relaxations() const;

  // Captures the complete resumable state. Only valid at an iteration
  // boundary (between step() calls) — a run abandoned mid-step via
  // StopRequested must not be snapshotted.
  Snapshot snapshot() const;

  // Finalizes and returns the result (distances + iteration trace).
  // The run must not be stepped afterwards.
  algo::SsspResult take_result();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sssp::core
