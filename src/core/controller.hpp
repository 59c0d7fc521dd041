// DeltaController — the paper's feedback loop (Figure 4, Sections
// 4.1-4.5). Each iteration it:
//   1. observes (X1, X2) after advance and trains the ADVANCE-MODEL;
//      if the previous iteration changed delta, it also trains the
//      BISECT-MODEL with the realized frontier change;
//   2. after bisect, computes delta_{k+1} via Eq. 6:
//        delta_{k+1} = delta_k + (P/d - X4_k) / alpha
//      using the learned alpha once converged, the Eq. 8 bootstrap
//      before that.
// The caller (SelfTuningSssp) applies the returned delta through the
// rebalancer and reports forced progress jumps back via force_delta().
//
// Self-healing (docs/ROBUSTNESS.md): a ControllerHealth monitor watches
// for non-finite inputs, NaN/Inf model state, delta pinned at its
// bounds, and step oscillation. On detection the controller quarantines
// and resets both models and degrades to a static mean-edge-weight
// delta policy (delta advances by `fallback_delta` per plan, the
// classic delta-stepping bucket walk); after a probation streak of
// well-formed plans it recovers to adaptive control. Distances are
// exact in every state — only tracking quality is at stake.
#pragma once

#include "core/advance_model.hpp"
#include "core/bisect_model.hpp"
#include "core/controller_health.hpp"

namespace sssp::core {

struct ControllerConfig {
  // The parallelism set-point P (required, > 0).
  double set_point = 0.0;
  // Initial delta; 0 lets the caller seed it (mean edge weight).
  double initial_delta = 0.0;
  double min_delta = 1.0;
  double max_delta = 1e15;
  // Stability clamp: |delta step| <= max_step_ratio * max(delta, 1).
  // Overshoot before the models converge is the failure mode the paper
  // mitigates with Eq. 8; the clamp bounds the worst case.
  double max_step_ratio = 4.0;
  // Deadband: no delta change while X4 is within this relative band of
  // the target frontier size. Without it the rebalancer ping-pongs a
  // slice of vertices between the frontier and the far queue every
  // iteration, paying stage-4 work for no tracking benefit.
  double deadband_ratio = 0.25;
  // Seed for the ADVANCE-MODEL's degree estimate (graph mean degree).
  double initial_degree = 1.0;
  // Degraded-mode bucket width (the static delta policy's step per
  // plan). 0 falls back to max(initial_delta, min_delta); SelfTuningSssp
  // seeds it with the graph's mean edge weight.
  double fallback_delta = 0.0;
  // Health-monitor thresholds (see controller_health.hpp).
  HealthConfig health;
};

class DeltaController {
 public:
  explicit DeltaController(const ControllerConfig& config);

  // Phase A — after advance_and_filter of iteration k. Non-finite
  // observations are rejected by the models (see AdaptiveSgd::update).
  void observe_advance(double x1, double x2);

  // Phase B — after bisect of iteration k. far_total_size is the whole
  // far queue's population; far_partition_{size,bound} describe its
  // current partition (Eq. 8 inputs). Returns delta_{k+1}.
  //
  // When the far queue is empty, positive delta steps are suppressed:
  // raising the threshold cannot release any postponed work, and letting
  // delta run away from the distance range in play would poison the
  // Eq. 8 bootstrap (alpha = X4/delta) for the rest of the run.
  //
  // Non-finite inputs suppress planning entirely: the current delta is
  // returned unchanged (logged once per run, counted in
  // health().rejected_inputs()) instead of propagating garbage into
  // Eq. 6 / Eq. 8. Repeated rejects degrade the control plane.
  double plan_delta(double x4, double far_total_size,
                    double far_partition_size, double far_partition_bound);

  // The run loop overrode delta. inform_model controls whether the jump
  // is fed to the BISECT-MODEL: true for rebalancer pulls (the realized
  // frontier change carries alpha information), false for bookkeeping
  // snaps (e.g. re-anchoring delta to the wavefront after the far queue
  // drained — no vertices moved, so there is nothing to learn).
  void force_delta(double new_delta, double x4, bool inform_model = true);

  double delta() const noexcept { return delta_; }
  double set_point() const noexcept { return config_.set_point; }
  // Retargets the controller (power-feedback mode adjusts P from watts;
  // paper Section 5.2 / Figure 8 discussion). Must be positive.
  void set_set_point(double set_point);
  // P / d (Eq. 3).
  double target_frontier_size() const {
    return advance_.target_frontier_size(config_.set_point);
  }
  // alpha used by the last plan_delta() (diagnostics + Eq. 7 input).
  double last_alpha() const noexcept { return last_alpha_; }
  double deadband_ratio() const noexcept { return config_.deadband_ratio; }

  const AdvanceModel& advance_model() const noexcept { return advance_; }
  const BisectModel& bisect_model() const noexcept { return bisect_; }

  // Self-healing state (read-only; the controller manages transitions).
  const ControllerHealth& health() const noexcept { return health_; }
  ControlState control_state() const noexcept { return health_.state(); }

  // External-fault quarantine: the run loop's invariant auditor caught a
  // tripped invariant and no longer trusts the adaptive models. Resets
  // both models and degrades to the static fallback delta policy (same
  // path as a detected divergence); recovery goes through the usual
  // probation. Idempotent while already degraded.
  void quarantine();

  // Complete serializable controller state (checkpoint/resume): delta,
  // the pending BISECT-MODEL observation, both SGD models, and the
  // health monitor. Restoring a captured state onto a controller built
  // from the same config reproduces every subsequent plan bit-for-bit.
  struct State {
    double delta = 0.0;
    double last_alpha = 1.0;
    double pending_delta_change = 0.0;
    double pending_x4 = 0.0;
    bool has_pending = false;
    bool logged_nonfinite = false;
    AdaptiveSgd::State advance_sgd;
    AdaptiveSgd::State bisect_sgd;
    ControllerHealth::State health;

    friend bool operator==(const State&, const State&) = default;
  };
  State state() const noexcept;
  // Validated restore: delta must be finite and inside the configured
  // [min_delta, max_delta]; alpha/pending fields finite. Rejections are
  // counted through the existing input firewall
  // ("controller.health.rejected_inputs") and throw
  // std::invalid_argument — a corrupt checkpoint degrades to a load
  // error, never to a poisoned control plane.
  void restore(const State& state);

 private:
  double clamp_delta(double delta) const;
  double fallback_step() const;
  // Quarantine: discard both models' learned state and restart them from
  // the configured priors.
  void reset_models();
  void handle_event(HealthEvent event);

  ControllerConfig config_;
  AdvanceModel advance_;
  BisectModel bisect_;
  ControllerHealth health_;
  double delta_;
  double last_alpha_ = 1.0;
  // Pending (delta change, x4) awaiting the next iteration's X1.
  double pending_delta_change_ = 0.0;
  double pending_x4_ = 0.0;
  bool has_pending_ = false;
  bool logged_nonfinite_ = false;
};

}  // namespace sssp::core
