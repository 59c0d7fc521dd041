#include "core/power_feedback.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "fault/failpoint.hpp"
#include "obs/metrics.hpp"
#include "sim/cost_model.hpp"
#include "sim/power_model.hpp"
#include "util/stats.hpp"

namespace sssp::core {

PowerFeedbackResult power_feedback_sssp(const graph::CsrGraph& graph,
                                        graph::VertexId source,
                                        const sim::DeviceSpec& device,
                                        const sim::DvfsPolicy& policy,
                                        const PowerFeedbackOptions& options) {
  if (options.power_budget_w <= 0.0)
    throw std::invalid_argument("power_feedback_sssp: budget must be > 0");
  if (options.gain <= 0.0)
    throw std::invalid_argument("power_feedback_sssp: gain must be > 0");
  if (options.min_set_point <= 0.0 ||
      options.min_set_point > options.max_set_point)
    throw std::invalid_argument("power_feedback_sssp: bad set-point bounds");

  SelfTuningOptions tuning = options.tuning;
  tuning.set_point = std::clamp(options.initial_set_point,
                                options.min_set_point, options.max_set_point);
  SelfTuningRun run(graph, source, tuning);

  auto live_policy = policy.clone();
  sim::FrequencyPair freqs = live_policy->initial(device);

  PowerFeedbackResult result;
  util::Ema power_ema(options.power_budget_w, options.power_ema_tau);
  double set_point = tuning.set_point;
  std::size_t compliant = 0;

  while (run.step()) {
    const frontier::IterationStats& it = run.last_iteration();
    const sim::IterationTiming timing =
        sim::time_iteration(device, freqs, it.to_work());
    double watts = sim::board_power(
        device, freqs, timing.core_utilization, timing.mem_utilization);

    // Injected fault: a garbage meter sample on the feedback path.
    if (SSSP_FAILPOINT("sim.power.nan"))
      watts = std::numeric_limits<double>::quiet_NaN();
    // A non-finite reading must not reach the EMA — one NaN would stick
    // in the smoothed state and freeze the set-point loop for the rest
    // of the run. Drop the sample, hold the knob, keep the governor on
    // its last utilizations.
    if (!std::isfinite(watts)) {
      if (obs::metrics_enabled())
        obs::MetricsRegistry::global()
            .counter("power_feedback.rejected_samples")
            .add();
      freqs = live_policy->next(device, timing);
      continue;
    }

    // The "PowerMon reading" for this iteration, smoothed.
    const double smoothed = power_ema.update(watts);
    if (smoothed <= options.power_budget_w) ++compliant;
    result.power_trace_w.push_back(watts);
    result.set_point_trace.push_back(set_point);

    // Multiplicative-increase / multiplicative-decrease on the knob.
    const double error =
        (options.power_budget_w - smoothed) / options.power_budget_w;
    set_point = std::clamp(set_point * std::exp(options.gain * error),
                           options.min_set_point, options.max_set_point);
    run.set_set_point(set_point);

    // The governor reacts to the same utilizations the simulator sees.
    freqs = live_policy->next(device, timing);
  }

  result.sssp = run.take_result();
  result.compliant_fraction =
      result.power_trace_w.empty()
          ? 1.0
          : static_cast<double>(compliant) /
                static_cast<double>(result.power_trace_w.size());

  // Full replay for the headline time/energy numbers (fresh policy so
  // the governor starts from its initial state, as simulate_run does).
  result.report = sim::simulate_run(device, policy,
                                    result.sssp.to_workload("power-feedback"),
                                    {.keep_iteration_reports = false});
  return result;
}

}  // namespace sssp::core
