// Closed-loop power control — the paper's proposed future work realized
// on the simulated testbed (Section 5.2: "a user might specify a power
// limit instead of P, and the controller could then adjust itself in
// response to direct power observations").
//
// A PowerFeedbackRun wraps a SelfTuningRun. After every iteration it
// computes the iteration's board power through the device model (the
// stand-in for a PowerMon reading), smooths it with an EMA, and nudges
// the parallelism set-point multiplicatively:
//
//   error = (budget - power_ema) / budget
//   P    *= exp(gain * error),  clamped to [min, max]
//
// Because Figure 8 establishes that average power is monotone in P under
// the default governor, this loop converges to the largest P whose power
// stays at the budget — i.e. the fastest compliant operating point —
// without any offline sweep (contrast power_cap.hpp, which sweeps).
#pragma once

#include <vector>

#include "core/self_tuning.hpp"
#include "sim/device.hpp"
#include "sim/dvfs.hpp"
#include "sim/run.hpp"

namespace sssp::core {

struct PowerFeedbackOptions {
  double power_budget_w = 0.0;  // required, > 0
  double initial_set_point = 4096.0;
  double min_set_point = 64.0;
  double max_set_point = 1e9;
  // Multiplicative feedback gain per iteration; higher reacts faster but
  // overshoots more.
  double gain = 0.5;
  // EMA time constant for the power signal (PowerMon samples are noisy;
  // the paper's device streams at 1 kHz and any real loop would filter).
  double power_ema_tau = 3.0;
  SelfTuningOptions tuning;  // the set_point field is ignored
};

struct PowerFeedbackResult {
  algo::SsspResult sssp;
  // Per-iteration traces of the control loop.
  std::vector<double> set_point_trace;
  std::vector<double> power_trace_w;  // instantaneous (per-iteration) power
  sim::RunReport report;              // full simulated replay of the run
  // Fraction of iterations whose smoothed power respected the budget.
  double compliant_fraction = 0.0;
};

// Runs SSSP to completion under the power budget on (device, policy).
// Distances remain exact for any budget.
PowerFeedbackResult power_feedback_sssp(const graph::CsrGraph& graph,
                                        graph::VertexId source,
                                        const sim::DeviceSpec& device,
                                        const sim::DvfsPolicy& policy,
                                        const PowerFeedbackOptions& options);

}  // namespace sssp::core
