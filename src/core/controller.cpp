#include "core/controller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace sssp::core {

namespace {

struct ControllerMetrics {
  obs::Counter& observations;
  obs::Counter& plans;
  obs::Counter& deadband_holds;
  obs::Counter& forced_deltas;
  obs::Counter& rejected_inputs;
  obs::Counter& degradations;
  obs::Counter& recoveries;
  obs::Counter& model_resets;
  obs::Histogram& delta;

  static ControllerMetrics& get() {
    static ControllerMetrics m{
        obs::MetricsRegistry::global().counter("controller.observations"),
        obs::MetricsRegistry::global().counter("controller.plans"),
        obs::MetricsRegistry::global().counter("controller.deadband_holds"),
        obs::MetricsRegistry::global().counter("controller.forced_deltas"),
        obs::MetricsRegistry::global().counter(
            "controller.health.rejected_inputs"),
        obs::MetricsRegistry::global().counter(
            "controller.health.degradations"),
        obs::MetricsRegistry::global().counter("controller.health.recoveries"),
        obs::MetricsRegistry::global().counter(
            "controller.health.model_resets"),
        obs::MetricsRegistry::global().histogram("controller.delta")};
    return m;
  }
};

}  // namespace

DeltaController::DeltaController(const ControllerConfig& config)
    : config_(config),
      advance_(AdvanceModel::Options{
          .initial_degree =
              config.initial_degree > 0 ? config.initial_degree : 1.0}),
      health_(config.health),
      delta_(config.initial_delta) {
  if (config.set_point <= 0.0)
    throw std::invalid_argument("DeltaController: set_point must be > 0");
  if (config.min_delta <= 0.0 || config.min_delta > config.max_delta)
    throw std::invalid_argument("DeltaController: bad delta bounds");
  if (config.max_step_ratio <= 0.0)
    throw std::invalid_argument("DeltaController: max_step_ratio must be > 0");
  if (!std::isfinite(config.fallback_delta) || config.fallback_delta < 0.0)
    throw std::invalid_argument(
        "DeltaController: fallback_delta must be finite and >= 0");
  if (delta_ <= 0.0) delta_ = config.min_delta;
  delta_ = clamp_delta(delta_);
}

double DeltaController::clamp_delta(double delta) const {
  return std::clamp(delta, config_.min_delta, config_.max_delta);
}

double DeltaController::fallback_step() const {
  if (config_.fallback_delta > 0.0) return config_.fallback_delta;
  return std::max(config_.initial_delta, config_.min_delta);
}

void DeltaController::reset_models() {
  advance_ = AdvanceModel(AdvanceModel::Options{
      .initial_degree =
          config_.initial_degree > 0 ? config_.initial_degree : 1.0});
  bisect_ = BisectModel();
  has_pending_ = false;
  last_alpha_ = 1.0;
  health_.count_model_reset();
  if (obs::metrics_enabled()) ControllerMetrics::get().model_resets.add();
}

void DeltaController::quarantine() {
  handle_event(health_.record_external_fault());
}

void DeltaController::handle_event(HealthEvent event) {
  switch (event) {
    case HealthEvent::kNone:
      return;
    case HealthEvent::kDegraded: {
      reset_models();
      SSSP_LOG(kWarn) << "controller degraded: models quarantined, "
                         "falling back to static delta policy (step "
                      << fallback_step() << ")";
      if (obs::metrics_enabled()) ControllerMetrics::get().degradations.add();
      if (obs::trace_enabled()) {
        obs::Tracer& tracer = obs::Tracer::global();
        tracer.instant("controller_degraded", tracer.now_us());
      }
      return;
    }
    case HealthEvent::kRecovered: {
      SSSP_LOG(kInfo) << "controller recovered: adaptive control resumed "
                         "after probation";
      if (obs::metrics_enabled()) ControllerMetrics::get().recoveries.add();
      if (obs::trace_enabled()) {
        obs::Tracer& tracer = obs::Tracer::global();
        tracer.instant("controller_recovered", tracer.now_us());
      }
      return;
    }
  }
}

void DeltaController::observe_advance(double x1, double x2) {
  if (obs::metrics_enabled()) ControllerMetrics::get().observations.add();
  if (has_pending_) {
    bisect_.observe(pending_delta_change_, pending_x4_, x1);
    has_pending_ = false;
  }
  if (x1 > 0.0) advance_.observe(x1, x2);
}

double DeltaController::plan_delta(double x4, double far_total_size,
                                   double far_partition_size,
                                   double far_partition_bound) {
  // Input firewall: garbage in the stats pipeline must not reach Eq. 6 /
  // Eq. 8. Suppress the plan, keep the current delta, and let the health
  // monitor decide whether the controller has to degrade.
  if (!std::isfinite(x4) || !std::isfinite(far_total_size) ||
      !std::isfinite(far_partition_size) ||
      !std::isfinite(far_partition_bound)) {
    if (!logged_nonfinite_) {
      SSSP_LOG(kWarn) << "controller: non-finite plan input (x4=" << x4
                      << ", far=" << far_total_size
                      << "); suppressing delta planning";
      logged_nonfinite_ = true;
    }
    if (obs::metrics_enabled()) ControllerMetrics::get().rejected_inputs.add();
    handle_event(health_.record_rejected_input());
    has_pending_ = false;
    return delta_;
  }

  const double previous_delta = delta_;

  if (health_.degraded()) {
    // Static mean-edge-weight policy: walk the threshold forward one
    // bucket per plan (delta-stepping's fixed-width behavior). No model
    // output is consulted while quarantined.
    const double new_delta = clamp_delta(delta_ + fallback_step());
    pending_delta_change_ = new_delta - delta_;
    pending_x4_ = x4;
    // Keep training the fresh models on realized outcomes so recovery
    // resumes from warm estimates.
    has_pending_ = pending_delta_change_ != 0.0;
    delta_ = new_delta;
    if (obs::metrics_enabled()) {
      ControllerMetrics& m = ControllerMetrics::get();
      m.plans.add();
      m.delta.record(delta_);
    }
    handle_event(health_.record_plan(
        /*at_bound=*/delta_ <= config_.min_delta || delta_ >= config_.max_delta,
        /*step=*/delta_ - previous_delta,
        /*relative_step=*/(delta_ - previous_delta) /
            std::max(previous_delta, 1.0),
        /*model_state_finite=*/true));
    return delta_;
  }

  BisectModel::BootstrapState state;
  state.x4 = x4;
  state.x1_target = target_frontier_size();
  state.delta = delta_;
  state.partition_size = far_partition_size;
  state.partition_bound = far_partition_bound;
  last_alpha_ = bisect_.alpha(state);

  // Eq. 6, with a deadband around the target.
  double step = (state.x1_target - x4) / last_alpha_;
  const bool in_deadband = std::abs(x4 - state.x1_target) <=
                           config_.deadband_ratio * state.x1_target;
  if (in_deadband) step = 0.0;
  if (far_total_size <= 0.0 && step > 0.0) step = 0.0;
  const double max_step = config_.max_step_ratio * std::max(delta_, 1.0);
  step = std::clamp(step, -max_step, max_step);
  // Belt and braces: the models guard their own inputs, but a non-finite
  // step must never reach delta.
  if (!std::isfinite(step)) step = 0.0;

  // "Pinned" means the clamp truncated the model's request — a diverging
  // model slams the bound plan after plan. Sitting at a bound through
  // deadband holds (step == 0) is healthy equilibrium, not divergence.
  const double attempted = delta_ + step;
  const bool pinned = step != 0.0 && (attempted < config_.min_delta ||
                                      attempted > config_.max_delta);

  const double new_delta = clamp_delta(attempted);
  pending_delta_change_ = new_delta - delta_;
  pending_x4_ = x4;
  has_pending_ = pending_delta_change_ != 0.0;
  delta_ = new_delta;
  if (obs::metrics_enabled()) {
    ControllerMetrics& m = ControllerMetrics::get();
    m.plans.add();
    if (in_deadband) m.deadband_holds.add();
    m.delta.record(delta_);
  }

  const bool model_state_finite =
      std::isfinite(advance_.degree()) && std::isfinite(last_alpha_);
  handle_event(health_.record_plan(
      pinned,
      /*step=*/delta_ - previous_delta,
      /*relative_step=*/(delta_ - previous_delta) /
          std::max(previous_delta, 1.0),
      model_state_finite));
  return delta_;
}

DeltaController::State DeltaController::state() const noexcept {
  State state;
  state.delta = delta_;
  state.last_alpha = last_alpha_;
  state.pending_delta_change = pending_delta_change_;
  state.pending_x4 = pending_x4_;
  state.has_pending = has_pending_;
  state.logged_nonfinite = logged_nonfinite_;
  state.advance_sgd = advance_.sgd_state();
  state.bisect_sgd = bisect_.sgd_state();
  state.health = health_.save_state();
  return state;
}

void DeltaController::restore(const State& state) {
  const bool well_formed =
      std::isfinite(state.delta) && state.delta >= config_.min_delta &&
      state.delta <= config_.max_delta && std::isfinite(state.last_alpha) &&
      state.last_alpha > 0.0 && std::isfinite(state.pending_delta_change) &&
      std::isfinite(state.pending_x4);
  if (!well_formed) {
    if (obs::metrics_enabled()) ControllerMetrics::get().rejected_inputs.add();
    throw std::invalid_argument(
        "DeltaController: rejected restore state (non-finite or "
        "out-of-range field)");
  }
  // The models and the monitor run their own firewalls; any rejection
  // propagates before this controller's fields are touched.
  advance_.restore_sgd(state.advance_sgd);
  bisect_.restore_sgd(state.bisect_sgd);
  health_.restore(state.health);
  delta_ = state.delta;
  last_alpha_ = state.last_alpha;
  pending_delta_change_ = state.pending_delta_change;
  pending_x4_ = state.pending_x4;
  has_pending_ = state.has_pending;
  logged_nonfinite_ = state.logged_nonfinite;
}

void DeltaController::set_set_point(double set_point) {
  if (set_point <= 0.0)
    throw std::invalid_argument("DeltaController: set_point must be > 0");
  config_.set_point = set_point;
}

void DeltaController::force_delta(double new_delta, double x4,
                                  bool inform_model) {
  if (obs::metrics_enabled()) ControllerMetrics::get().forced_deltas.add();
  // Forced jumps come from the run loop's own bookkeeping; a non-finite
  // override would bypass the plan-side firewall.
  if (!std::isfinite(new_delta) || !std::isfinite(x4)) {
    handle_event(health_.record_rejected_input());
    return;
  }
  new_delta = clamp_delta(new_delta);
  if (inform_model) {
    pending_delta_change_ = new_delta - delta_;
    pending_x4_ = x4;
    has_pending_ = pending_delta_change_ != 0.0;
  } else {
    has_pending_ = false;
  }
  delta_ = new_delta;
}

}  // namespace sssp::core
