#include "core/adaptive_sgd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "fault/failpoint.hpp"
#include "obs/metrics.hpp"

namespace sssp::core {

AdaptiveSgd::AdaptiveSgd(const AdaptiveSgdOptions& options)
    : options_(options),
      theta_(options.initial_parameter),
      v_bar_(options.epsilon),
      tau_((1.0 + options.epsilon) * 2.0) {
  if (options.epsilon <= 0.0)
    throw std::invalid_argument("AdaptiveSgd: epsilon must be positive");
  if (options.min_parameter > options.max_parameter)
    throw std::invalid_argument("AdaptiveSgd: min_parameter > max_parameter");
  set_parameter(theta_);
}

void AdaptiveSgd::set_parameter(double theta) noexcept {
  theta_ = std::clamp(theta, options_.min_parameter, options_.max_parameter);
}

AdaptiveSgd::State AdaptiveSgd::state() const noexcept {
  return {theta_, g_bar_, v_bar_, h_bar_, tau_, mu_, updates_, rejected_};
}

void AdaptiveSgd::restore(const State& state) {
  // Same firewall policy as update(): a state that could not have been
  // produced by this model (non-finite EMAs, theta outside the clamp,
  // impossible tau/variance) is rejected and counted, never installed.
  const bool well_formed =
      std::isfinite(state.theta) && std::isfinite(state.g_bar) &&
      std::isfinite(state.v_bar) && std::isfinite(state.h_bar) &&
      std::isfinite(state.tau) && std::isfinite(state.mu) &&
      state.theta >= options_.min_parameter &&
      state.theta <= options_.max_parameter && state.v_bar > 0.0 &&
      state.h_bar > 0.0 && state.tau >= 1.0 && state.mu >= 0.0;
  if (!well_formed) {
    ++rejected_;
    if (obs::metrics_enabled())
      obs::MetricsRegistry::global()
          .counter("sgd.rejected_observations")
          .add();
    throw std::invalid_argument(
        "AdaptiveSgd: rejected restore state (non-finite or out-of-range "
        "field)");
  }
  theta_ = state.theta;
  g_bar_ = state.g_bar;
  v_bar_ = state.v_bar;
  h_bar_ = state.h_bar;
  tau_ = state.tau;
  mu_ = state.mu;
  updates_ = state.updates;
  rejected_ = state.rejected;
}

double AdaptiveSgd::update(double x, double y) {
  // Injected fault: a poisoned observation, as a glitched stats pipeline
  // or corrupted engine counter would produce.
  if (SSSP_FAILPOINT("sgd.observe.nan"))
    y = std::numeric_limits<double>::quiet_NaN();
  if (!std::isfinite(x) || !std::isfinite(y)) {
    ++rejected_;
    if (obs::metrics_enabled())
      obs::MetricsRegistry::global()
          .counter("sgd.rejected_observations")
          .add();
    return theta_;  // keep theta and the EMA state untouched
  }
  if (x == 0.0) return theta_;  // no gradient information
  ++updates_;

  const double residual = y - theta_ * x;
  const double grad = -2.0 * residual * x;   // line 1
  const double grad2 = 2.0 * x * x;          // line 2

  const double w = 1.0 / tau_;
  g_bar_ = (1.0 - w) * g_bar_ + w * grad;           // line 3
  v_bar_ = (1.0 - w) * v_bar_ + w * grad * grad;    // line 4
  h_bar_ = (1.0 - w) * h_bar_ + w * grad2;          // line 5

  const double g_sq = g_bar_ * g_bar_;
  const double denom = h_bar_ * v_bar_;
  // Guard: before the EMAs warm up, denom can underflow to ~0; skip the
  // parameter move but keep the EMA state.
  if (denom > 0.0 && std::isfinite(denom)) {
    mu_ = g_sq / denom;                             // line 6
  } else {
    mu_ = 0.0;
  }

  // line 7 — adapt memory: a consistent gradient direction (g^2 ~ v)
  // shortens memory, noise lengthens it. Clamped to >= 1.
  const double ratio = v_bar_ > 0.0 ? std::clamp(g_sq / v_bar_, 0.0, 1.0) : 0.0;
  tau_ = std::max(1.0, (1.0 - ratio) * tau_ + 1.0);

  set_parameter(theta_ - mu_ * grad);               // line 8
  return theta_;
}

}  // namespace sssp::core
