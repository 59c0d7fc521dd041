// The fixed-delta stepping solvers: near-far, delta-stepping and
// Bellman-Ford. All three run one loop over the near-far engine; they
// differ only in the phase width and in where postponed work waits
// (Dong et al., arXiv:2105.06145): near-far's flat far queue or
// delta-stepping's bucket ring.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "frontier/engine.hpp"
#include "frontier/far_queue.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/near_far.hpp"

namespace sssp::algo {
namespace {

// The ring may always grow to this many buckets, or to one per vertex
// on larger graphs.
constexpr graph::Distance kMaxRing = 65536;

// End of phase `phase`: the frontier holds vertices with distance in
// [phase * delta, (phase + 1) * delta), saturating at infinity.
graph::Distance phase_end(std::uint64_t phase, graph::Distance delta) {
  return phase + 1 > graph::kInfiniteDistance / delta
             ? graph::kInfiniteDistance
             : static_cast<graph::Distance>(phase + 1) * delta;
}

// Near-far's far queue (Davidson et al.): one MAX partition, so finding
// the next phase scans the whole queue twice, once for its smallest
// live distance and once to pull that phase's entries.
class FlatFar {
 public:
  explicit FlatFar(graph::Distance delta) : delta_(delta) {}

  void push(const frontier::NearFarEngine& engine) {
    far_.push_bulk(engine.spill(), engine.distances());
  }

  // Moves `phase` to the first phase with live work and appends that
  // work to `refill`; drops the queue when every entry is stale.
  // Returns the entries scanned.
  std::uint64_t next_phase(const frontier::NearFarEngine& engine,
                           std::uint64_t& phase,
                           std::vector<graph::VertexId>& refill) {
    const graph::Distance next_live =
        far_.min_live_distance(engine.distances());
    const std::uint64_t scanned = far_.size();
    if (next_live == graph::kInfiniteDistance) {
      far_.clear();
      return scanned;
    }
    phase = next_live / delta_;
    return scanned + far_.pull_below(phase_end(phase, delta_),
                                     engine.distances(), refill);
  }

  std::size_t size() const noexcept { return far_.size(); }

 private:
  graph::Distance delta_;
  frontier::FarQueue far_{graph::kInfiniteDistance};
};

// Delta-stepping's cyclic bucket ring; bucket index = dist / delta mod
// ring. A spill lies less than max_weight past the current bucket's
// upper end, so at most max_weight / delta + 1 buckets ahead of it: a
// ring of max_weight / delta + 2 never wraps onto a bucket still in
// use. Moving to the next phase scans only that bucket's entries.
class RingFar {
 public:
  RingFar(graph::Distance delta, graph::Distance ring)
      : delta_(delta), buckets_(ring) {}

  void push(const frontier::NearFarEngine& engine) {
    for (const graph::VertexId v : engine.spill()) {
      const graph::Distance d = engine.distance(v);
      buckets_[(d / delta_) % buckets_.size()].push_back({v, d});
    }
    entries_ += engine.spill().size();
  }

  // Moves `phase` to the next non-empty bucket and appends its live
  // entries to `refill` (an entry is stale once its vertex improved
  // past the distance it was spilled at). Returns the entries scanned.
  std::uint64_t next_phase(const frontier::NearFarEngine& engine,
                           std::uint64_t& phase,
                           std::vector<graph::VertexId>& refill) {
    do {
      ++phase;
    } while (buckets_[phase % buckets_.size()].empty());
    std::vector<frontier::FarEntry>& bucket =
        buckets_[phase % buckets_.size()];
    const std::uint64_t scanned = bucket.size();
    entries_ -= bucket.size();
    for (const frontier::FarEntry& entry : bucket)
      if (engine.distance(entry.vertex) == entry.distance)
        refill.push_back(entry.vertex);
    bucket.clear();
    return scanned;
  }

  std::size_t size() const noexcept { return entries_; }

 private:
  graph::Distance delta_;
  std::vector<std::vector<frontier::FarEntry>> buckets_;
  std::size_t entries_ = 0;
};

// The stepping loop: relax the frontier, keep what lies below the end
// of the current phase, postpone the rest in `far`, and when the phase
// runs dry let `far` move to the next phase with live work.
template <class Far>
SsspResult step(const graph::CsrGraph& graph, graph::VertexId source,
                graph::Distance delta, Far far, util::RunControl* control,
                const char* algorithm) {
  frontier::NearFarEngine engine(graph, source, {.control = control});

  SsspResult result;
  result.algorithm = algorithm;
  result.source = source;

  std::uint64_t phase = 0;
  std::vector<graph::VertexId> refill;
  while (!engine.frontier_empty()) {
    if (control != nullptr) {
      const util::StopReason reason =
          control->poll_iteration(engine.total_improving_relaxations());
      if (reason != util::StopReason::kNone) throw util::StopRequested(reason);
    }

    const graph::Distance threshold = phase_end(phase, delta);
    frontier::IterationStats stats;
    stats.delta = static_cast<double>(threshold);

    const auto advance = engine.advance_and_filter();
    stats.x1 = advance.x1;
    stats.x2 = advance.x2;
    stats.x3 = advance.x3;
    stats.improving_relaxations = advance.improving_relaxations;

    stats.x4 = engine.bisect(threshold);
    far.push(engine);
    engine.clear_spill();

    // Stage 4 — bisect-far-queue: the current phase is exhausted.
    while (engine.frontier_empty() && far.size() > 0) {
      refill.clear();
      stats.rebalance_items += far.next_phase(engine, phase, refill);
      engine.inject(refill);
    }

    stats.far_queue_size = far.size();
    result.iterations.push_back(stats);
  }

  result.improving_relaxations = engine.total_improving_relaxations();
  result.distances = engine.distances();
  result.parents = engine.parents();
  return result;
}

graph::Distance heuristic_delta(const graph::CsrGraph& graph,
                                graph::Weight max_weight) {
  std::size_t max_degree = 1;
  for (std::size_t v = 0; v < graph.num_vertices(); ++v)
    max_degree = std::max(max_degree,
                          graph.out_degree(static_cast<graph::VertexId>(v)));
  return std::max<graph::Distance>(1, max_weight / max_degree);
}

}  // namespace

graph::Distance default_delta(const graph::CsrGraph& graph) {
  return static_cast<graph::Distance>(
      std::max(1.0, std::round(graph.mean_edge_weight())));
}

SsspResult near_far(const graph::CsrGraph& graph, graph::VertexId source,
                    const NearFarOptions& options) {
  const graph::Distance delta =
      options.delta != 0 ? options.delta : default_delta(graph);
  return step(graph, source, delta, FlatFar(delta), options.control,
              "near-far");
}

SsspResult bellman_ford(const graph::CsrGraph& graph, graph::VertexId source,
                        util::RunControl* control) {
  return step(graph, source, graph::kInfiniteDistance,
              FlatFar(graph::kInfiniteDistance), control, "bellman-ford");
}

SsspResult delta_stepping(const graph::CsrGraph& graph,
                          graph::VertexId source,
                          const DeltaSteppingOptions& options) {
  if (source >= graph.num_vertices())
    throw std::invalid_argument("delta_stepping: source out of range");

  graph::Weight max_weight = 1;
  for (const graph::Weight w : graph.weights())
    max_weight = std::max(max_weight, w);
  const graph::Distance delta =
      options.delta > 0 ? options.delta : heuristic_delta(graph, max_weight);

  // A ring larger than the graph (a heavy edge at a tiny delta) would
  // cost memory and empty-bucket scans out of all proportion to the
  // work; the flat queue visits the same phases, counting its far-queue
  // work (rebalance_items, far_queue_size) its own way.
  const graph::Distance ring = max_weight / delta + 2;
  if (ring > std::max<graph::Distance>(graph.num_vertices(), kMaxRing))
    return step(graph, source, delta, FlatFar(delta), options.control,
                "delta-stepping");
  return step(graph, source, delta, RingFar(delta, ring), options.control,
              "delta-stepping");
}

}  // namespace sssp::algo
