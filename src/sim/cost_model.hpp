// Roofline-style timing model for one pipeline stage on the device.
//
// A stage processes `items` independent work items (edges for advance,
// frontier vertices for the other stages) and moves `bytes` through the
// memory system. Its duration is a fixed kernel-launch latency plus the
// larger of the compute time and the memory time at the current
// frequency pair. The model also reports average core and memory
// utilization over the stage, which feed the power model and the
// default DVFS governor.
#pragma once

#include <cstdint>

#include "sim/device.hpp"
#include "sim/workload.hpp"

namespace sssp::sim {

struct StageTiming {
  double seconds = 0.0;       // launch + max(compute, memory)
  double core_utilization = 0.0;  // fraction of core-seconds busy, in [0,1]
  double mem_utilization = 0.0;   // fraction of bandwidth-seconds used
};

// Times a kernel with `items` work items and `bytes` of traffic at the
// given frequencies. items == 0 returns a zero timing (no launch).
StageTiming time_stage(const DeviceSpec& device, const FrequencyPair& freqs,
                       std::uint64_t items, double bytes);

// Aggregate of the stages in one iteration: total time plus
// time-weighted average utilizations (what a sampling governor sees).
struct IterationTiming {
  double seconds = 0.0;
  double core_utilization = 0.0;
  double mem_utilization = 0.0;

  void accumulate(const StageTiming& stage) noexcept;
  void finalize() noexcept;  // converts sums into time-weighted averages

 private:
  double weighted_core_ = 0.0;
  double weighted_mem_ = 0.0;
  bool finalized_ = false;

 public:
  double weighted_core_sum() const noexcept { return weighted_core_; }
  double weighted_mem_sum() const noexcept { return weighted_mem_; }
};

// Times one recorded iteration as its four pipeline stages — advance
// over the relaxed edges, filter over X2, bisect-frontier over X3, and
// bisect-far-queue over X4 plus the rebalance scan — and finalizes the
// sum. The one composition both the replay (run.hpp) and the power
// feedback loop (core/power_feedback.hpp) charge.
IterationTiming time_iteration(const DeviceSpec& device,
                               const FrequencyPair& freqs,
                               const IterationWork& work);

}  // namespace sssp::sim
