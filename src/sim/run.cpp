#include "sim/run.hpp"

#include <stdexcept>

#include "fault/failpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/power_model.hpp"

namespace sssp::sim {

namespace {

struct SimMetrics {
  obs::Counter& runs;
  obs::Counter& iterations;
  obs::Histogram& iteration_seconds;
  obs::Histogram& iteration_power_w;

  static SimMetrics& get() {
    static SimMetrics m{
        obs::MetricsRegistry::global().counter("sim.runs"),
        obs::MetricsRegistry::global().counter("sim.iterations"),
        obs::MetricsRegistry::global().histogram("sim.iteration_seconds"),
        obs::MetricsRegistry::global().histogram("sim.iteration_power_w")};
    return m;
  }
};

}  // namespace

RunReport simulate_run(const DeviceSpec& device, const DvfsPolicy& policy,
                       const RunWorkload& workload,
                       const SimulateOptions& options) {
  SSSP_TRACE_SPAN("simulate_run");
  device.validate();
  RunReport report;
  auto live_policy = policy.clone();
  FrequencyPair freqs = live_policy->initial(device);

  for (const IterationWork& work : workload.iterations) {
    const IterationTiming iteration = time_iteration(device, freqs, work);

    // GPU-busy portion of the iteration.
    double gpu_power = board_power(device, freqs,
                                   iteration.core_utilization,
                                   iteration.mem_utilization);
    // Injected faults: a glitching power meter. A dropout reads 0 W, a
    // spike reads a large (but finite) transient — both are recorded
    // as-is; the trace integrals stay finite and downstream consumers
    // (EMA feedback, energy metrics) must tolerate them.
    if (SSSP_FAILPOINT("sim.power.dropout")) gpu_power = 0.0;
    if (SSSP_FAILPOINT("sim.power.spike")) gpu_power *= 100.0;
    report.trace.add_segment(iteration.seconds, gpu_power);

    // Host-side controller time: GPU idle, board at idle power.
    if (work.controller_seconds > 0.0) {
      report.trace.add_segment(work.controller_seconds,
                               idle_power(device, freqs));
      report.controller_seconds += work.controller_seconds;
    }

    if (options.keep_iteration_reports) {
      report.iterations.push_back({iteration.seconds, gpu_power,
                                   iteration.core_utilization,
                                   iteration.mem_utilization, freqs});
    }

    if (obs::metrics_enabled()) {
      SimMetrics& m = SimMetrics::get();
      m.iterations.add();
      m.iteration_seconds.record(iteration.seconds);
      m.iteration_power_w.record(gpu_power);
    }

    freqs = live_policy->next(device, iteration);
  }
  if (obs::metrics_enabled()) SimMetrics::get().runs.add();

  report.total_seconds = report.trace.duration_seconds();
  report.energy_joules = report.trace.energy_joules();
  report.average_power_w = report.trace.average_power_w();
  report.peak_power_w = report.trace.peak_power_w();
  return report;
}

RelativeMetrics relative_to(const RunReport& run, const RunReport& baseline) {
  if (run.total_seconds <= 0.0 || baseline.total_seconds <= 0.0)
    throw std::invalid_argument("relative_to: runs must have positive time");
  if (run.average_power_w <= 0.0 || baseline.average_power_w <= 0.0)
    throw std::invalid_argument("relative_to: runs must have positive power");
  RelativeMetrics m;
  m.speedup = baseline.total_seconds / run.total_seconds;
  m.relative_power = run.average_power_w / baseline.average_power_w;
  m.relative_energy = run.energy_joules / baseline.energy_joules;
  return m;
}

}  // namespace sssp::sim
