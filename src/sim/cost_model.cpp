#include "sim/cost_model.hpp"

#include <algorithm>
#include <cmath>

namespace sssp::sim {

StageTiming time_stage(const DeviceSpec& device, const FrequencyPair& freqs,
                       std::uint64_t items, double bytes) {
  StageTiming timing;
  if (items == 0) return timing;

  const double cores = static_cast<double>(device.cuda_cores);
  const double n = static_cast<double>(items);

  // Compute: each item occupies a core for 1/items_per_core_cycle cycles;
  // up to `cores` items run concurrently, so the kernel needs
  // ceil(n / cores) waves.
  const double cycles_per_item = 1.0 / device.items_per_core_cycle;
  const double waves = std::ceil(n / cores);
  const double core_hz = static_cast<double>(freqs.core_mhz) * 1e6;
  const double compute_seconds = waves * cycles_per_item / core_hz;

  // Memory: bandwidth scales linearly with memory frequency.
  const double bandwidth = device.peak_mem_bandwidth_bytes *
                           static_cast<double>(freqs.mem_mhz) /
                           static_cast<double>(device.max_mem_mhz());
  const double mem_seconds = bytes / bandwidth;

  const double busy_seconds = std::max(compute_seconds, mem_seconds);
  timing.seconds = device.kernel_launch_seconds + busy_seconds;

  // Core utilization: fraction of core-seconds actually occupied. The
  // last (or only) wave may be partially filled, and launch latency and
  // memory stalls leave cores idle.
  const double occupied_core_seconds = n * cycles_per_item / core_hz;
  timing.core_utilization =
      std::clamp(occupied_core_seconds / (cores * timing.seconds), 0.0, 1.0);

  // Memory utilization: fraction of available bandwidth-time consumed.
  timing.mem_utilization =
      std::clamp(mem_seconds / timing.seconds, 0.0, 1.0);
  return timing;
}

void IterationTiming::accumulate(const StageTiming& stage) noexcept {
  seconds += stage.seconds;
  weighted_core_ += stage.core_utilization * stage.seconds;
  weighted_mem_ += stage.mem_utilization * stage.seconds;
}

void IterationTiming::finalize() noexcept {
  if (finalized_) return;
  finalized_ = true;
  if (seconds > 0.0) {
    core_utilization = weighted_core_ / seconds;
    mem_utilization = weighted_mem_ / seconds;
  }
}

IterationTiming time_iteration(const DeviceSpec& device,
                               const FrequencyPair& freqs,
                               const IterationWork& work) {
  IterationTiming iteration;
  // Stage 1 — advance: edge-mapped over the frontier's neighbor lists.
  iteration.accumulate(time_stage(
      device, freqs, work.edges_relaxed,
      static_cast<double>(work.edges_relaxed) * device.bytes_per_edge));
  // Stage 2 — filter: vertex-mapped over the updated frontier.
  iteration.accumulate(
      time_stage(device, freqs, work.x2,
                 static_cast<double>(work.x2) * device.bytes_per_vertex));
  // Stage 3 — bisect-frontier over the filtered frontier.
  iteration.accumulate(
      time_stage(device, freqs, work.x3,
                 static_cast<double>(work.x3) * device.bytes_per_vertex));
  // Stage 4 — bisect-far-queue / rebalancer: scans the frontier plus
  // whatever far-queue partitions the rebalance touched.
  const std::uint64_t stage4_items = work.x4 + work.rebalance_items;
  iteration.accumulate(time_stage(
      device, freqs, stage4_items,
      static_cast<double>(stage4_items) * device.bytes_per_vertex));
  iteration.finalize();
  return iteration;
}

}  // namespace sssp::sim
