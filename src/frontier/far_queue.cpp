#include "frontier/far_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fault/failpoint.hpp"
#include "obs/metrics.hpp"

namespace sssp::frontier {

using graph::Distance;
using graph::kInfiniteDistance;
using graph::VertexId;

namespace {

struct FarQueueMetrics {
  obs::Counter& pushes;
  obs::Counter& pulled;
  obs::Counter& scanned;
  obs::Counter& boundary_updates;
  obs::Counter& boundary_moved;
  obs::Gauge& partitions;

  static FarQueueMetrics& get() {
    static FarQueueMetrics m{
        obs::MetricsRegistry::global().counter("far_queue.pushes"),
        obs::MetricsRegistry::global().counter("far_queue.pulled"),
        obs::MetricsRegistry::global().counter("far_queue.scanned"),
        obs::MetricsRegistry::global().counter("far_queue.boundary_updates"),
        obs::MetricsRegistry::global().counter("far_queue.boundary_moved"),
        obs::MetricsRegistry::global().gauge("far_queue.partitions")};
    return m;
  }
};

}  // namespace

FarQueue::FarQueue(Distance first_bound) {
  if (first_bound == 0)
    throw std::invalid_argument("FarQueue: first_bound must be > 0");
  if (first_bound != kInfiniteDistance)
    partitions_.push_back({first_bound, {}});
  partitions_.push_back({kInfiniteDistance, {}});
}

std::size_t FarQueue::partition_index_for(Distance d) const {
  // First partition whose upper bound is >= d (entries satisfy
  // B_{i-1} < d <= B_i). Bounds are sorted, so binary search.
  std::size_t lo = 0, hi = partitions_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (partitions_[mid].upper_bound >= d) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void FarQueue::push(VertexId v, Distance d) {
  partitions_[partition_index_for(d)].entries.push_back({v, d});
  ++total_entries_;
  if (obs::metrics_enabled()) FarQueueMetrics::get().pushes.add();
}

void FarQueue::push_bulk(std::span<const VertexId> vertices,
                         std::span<const Distance> current_distances) {
  const std::size_t n = vertices.size();
  if (n == 0) return;
  for (const VertexId v : vertices) {
    const Distance d = current_distances[v];
    partitions_[partition_index_for(d)].entries.push_back({v, d});
  }
  total_entries_ += n;
  if (obs::metrics_enabled()) FarQueueMetrics::get().pushes.add(n);
}

void FarQueue::drop_empty_front() {
  while (partitions_.size() > 1 && partitions_.front().entries.empty()) {
    lower_bound_ = partitions_.front().upper_bound;
    partitions_.erase(partitions_.begin());
  }
}

std::uint64_t FarQueue::pull_below(
    Distance threshold, std::span<const Distance> current_distances,
    std::vector<VertexId>& frontier) {
  const std::size_t frontier_before = frontier.size();
  std::uint64_t scanned = 0;
  for (Partition& partition : partitions_) {
    // Partitions entirely at/above the threshold hold no candidates
    // (entries can only be stale-or-retained there); stop early. A
    // partition straddles when its lower range is below the threshold.
    // We track only the first partition's lower bound, but since bounds
    // are sorted it suffices to stop at the first partition whose
    // predecessor bound >= threshold; equivalently stop after the first
    // partition whose upper bound >= threshold (it straddles).
    const bool straddles = partition.upper_bound >= threshold;
    scanned += partition.entries.size();
    std::size_t keep = 0;
    for (const FarEntry& entry : partition.entries) {
      if (current_distances[entry.vertex] != entry.distance) continue;  // stale
      if (entry.distance < threshold) {
        frontier.push_back(entry.vertex);
      } else {
        partition.entries[keep++] = entry;
      }
    }
    total_entries_ -= partition.entries.size() - keep;
    partition.entries.resize(keep);
    if (straddles) break;
  }
  drop_empty_front();
  if (obs::metrics_enabled()) {
    FarQueueMetrics& m = FarQueueMetrics::get();
    m.scanned.add(scanned);
    m.pulled.add(frontier.size() - frontier_before);
    m.partitions.set(static_cast<double>(partitions_.size()));
  }
  return scanned;
}

FarQueue::PullResult FarQueue::pull_front_partition(
    std::span<const Distance> current_distances,
    std::vector<VertexId>& frontier, std::uint64_t max_live) {
  Partition& front = partitions_.front();
  PullResult result;
  result.bound = front.upper_bound;

  std::size_t consumed = 0;
  for (; consumed < front.entries.size() && result.pulled < max_live;
       ++consumed) {
    const FarEntry& entry = front.entries[consumed];
    ++result.scanned;
    if (current_distances[entry.vertex] != entry.distance) continue;  // stale
    frontier.push_back(entry.vertex);
    ++result.pulled;
  }
  total_entries_ -= consumed;

  if (consumed == front.entries.size()) {
    result.exhausted = true;
    front.entries.clear();
    if (partitions_.size() > 1) {
      lower_bound_ = front.upper_bound;
      partitions_.erase(partitions_.begin());
    }
  } else {
    front.entries.erase(front.entries.begin(),
                        front.entries.begin() +
                            static_cast<std::ptrdiff_t>(consumed));
  }
  if (obs::metrics_enabled()) {
    FarQueueMetrics& m = FarQueueMetrics::get();
    m.scanned.add(result.scanned);
    m.pulled.add(result.pulled);
    m.partitions.set(static_cast<double>(partitions_.size()));
  }
  return result;
}

std::uint64_t FarQueue::update_boundary(double set_point, double alpha) {
  if (set_point <= 0.0 || alpha <= 0.0)
    throw std::invalid_argument(
        "FarQueue: set_point and alpha must be positive");
  drop_empty_front();

  const double width = set_point / alpha;
  // Keep at least one unit of width so the partition stays non-empty-able.
  const double target_f =
      static_cast<double>(lower_bound_) + std::max(1.0, width);
  // 9e18 guards the llround against overflow (LLONG_MAX ~ 9.2e18).
  const Distance target = target_f >= 9e18
                              ? kInfiniteDistance
                              : static_cast<Distance>(std::llround(target_f));

  if (target >= partitions_.front().upper_bound) return 0;  // monotone

  // Tightening the last remaining (MAX-bounded) partition spawns a fresh
  // MAX partition to receive the displaced tail (Section 4.6's append
  // rule). push_back may reallocate, so take references only afterwards.
  if (partitions_.size() == 1) partitions_.push_back({kInfiniteDistance, {}});

  Partition& current = partitions_.front();
  Partition& next = partitions_[1];
  std::uint64_t moved = 0;
  std::size_t keep = 0;
  for (const FarEntry& entry : current.entries) {
    if (entry.distance > target) {
      next.entries.push_back(entry);
      ++moved;
    } else {
      current.entries[keep++] = entry;
    }
  }
  current.entries.resize(keep);
  current.upper_bound = target;
  // Injected fault: a boundary write that breaks the Eq. 7 ordering
  // (current bound raised to/above the next partition's). The invariant
  // auditor's A2 check is the intended detector.
  if (SSSP_FAILPOINT("far.boundary.corrupt"))
    current.upper_bound = next.upper_bound;
  if (obs::metrics_enabled()) {
    FarQueueMetrics& m = FarQueueMetrics::get();
    m.boundary_updates.add();
    m.boundary_moved.add(moved);
    m.partitions.set(static_cast<double>(partitions_.size()));
  }
  return moved;
}

std::size_t FarQueue::current_partition_size() const {
  return partitions_.front().entries.size();
}

Distance FarQueue::current_partition_bound() const {
  return partitions_.front().upper_bound;
}

Distance FarQueue::min_live_distance(
    std::span<const Distance> current_distances) const {
  for (const Partition& partition : partitions_) {
    Distance best = kInfiniteDistance;
    for (const FarEntry& entry : partition.entries) {
      if (current_distances[entry.vertex] != entry.distance) continue;
      best = std::min(best, entry.distance);
    }
    if (best != kInfiniteDistance) return best;
  }
  return kInfiniteDistance;
}

void FarQueue::clear() {
  for (Partition& partition : partitions_) partition.entries.clear();
  total_entries_ = 0;
  drop_empty_front();
}

FarQueue::State FarQueue::state() const {
  State state;
  state.lower_bound = lower_bound_;
  state.bounds.reserve(partitions_.size());
  state.entries.reserve(partitions_.size());
  for (const Partition& partition : partitions_) {
    state.bounds.push_back(partition.upper_bound);
    state.entries.push_back(partition.entries);
  }
  return state;
}

void FarQueue::restore(State&& state) {
  if (state.bounds.empty() || state.bounds.size() != state.entries.size())
    throw std::invalid_argument(
        "FarQueue: rejected restore state (shape mismatch)");
  std::vector<Partition> partitions;
  partitions.reserve(state.bounds.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < state.bounds.size(); ++i) {
    total += state.entries[i].size();
    partitions.push_back({state.bounds[i], std::move(state.entries[i])});
  }
  partitions_ = std::move(partitions);
  lower_bound_ = state.lower_bound;
  total_entries_ = total;
  try {
    check_invariants();
  } catch (const std::logic_error& e) {
    throw std::invalid_argument(
        std::string("FarQueue: rejected restore state (") +
        e.what() + ")");
  }
}

void FarQueue::check_invariants() const {
  if (partitions_.empty())
    throw std::logic_error("FarQueue: no partitions");
  if (partitions_.back().upper_bound != kInfiniteDistance)
    throw std::logic_error("FarQueue: last bound must be MAX");
  Distance prev = lower_bound_;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < partitions_.size(); ++i) {
    const Partition& partition = partitions_[i];
    if (i > 0 && partition.upper_bound <= prev)
      throw std::logic_error("FarQueue: bounds not increasing");
    for (const FarEntry& entry : partition.entries) {
      if (entry.distance > partition.upper_bound)
        throw std::logic_error(
            "FarQueue: entry above its partition bound");
    }
    counted += partition.entries.size();
    prev = partition.upper_bound;
  }
  if (counted != total_entries_)
    throw std::logic_error("FarQueue: size accounting mismatch");
}

}  // namespace sssp::frontier
