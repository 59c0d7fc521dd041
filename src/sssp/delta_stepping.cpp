#include "sssp/delta_stepping.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "frontier/engine.hpp"
#include "frontier/far_queue.hpp"
#include "sssp/near_far.hpp"

namespace sssp::algo {
namespace {

// The ring may always grow to this many buckets, or to one per vertex
// on larger graphs.
constexpr graph::Distance kMaxRing = 65536;

graph::Distance heuristic_delta(const graph::CsrGraph& graph,
                                graph::Weight max_weight) {
  std::size_t max_degree = 1;
  for (std::size_t v = 0; v < graph.num_vertices(); ++v)
    max_degree = std::max(max_degree,
                          graph.out_degree(static_cast<graph::VertexId>(v)));
  return std::max<graph::Distance>(1, max_weight / max_degree);
}

}  // namespace

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

  // Cyclic bucket ring; bucket index = dist / delta mod ring. A spill
  // lies less than max_weight past the current bucket's upper end, so
  // at most max_weight / delta + 1 buckets ahead of it: a ring of
  // max_weight / delta + 2 never wraps onto a bucket still in use.
  const graph::Distance ring = max_weight / delta + 2;
  // A ring larger than the graph (a heavy edge at a tiny delta) would
  // cost memory and empty-bucket scans out of all proportion to the
  // work. Near-far at the same delta runs the same phases, so it
  // answers instead: the same distances, parents, x1-x4 and thresholds,
  // counting only its far-queue work (rebalance_items, far_queue_size)
  // its own way.
  if (ring > std::max<graph::Distance>(graph.num_vertices(), kMaxRing)) {
    SsspResult result = near_far(
        graph, source, {.delta = delta, .control = options.control});
    result.algorithm = "delta-stepping";
    return result;
  }

  frontier::NearFarEngine engine(graph, source, {.control = options.control});
  std::vector<std::vector<frontier::FarEntry>> buckets(ring);
  std::size_t ring_entries = 0;

  SsspResult result;
  result.algorithm = "delta-stepping";
  result.source = source;

  // Absolute index of the current bucket: the frontier holds vertices
  // with distance in [phase * delta, (phase + 1) * delta).
  std::uint64_t phase = 0;
  std::vector<graph::VertexId> refill;
  while (!engine.frontier_empty()) {
    if (options.control != nullptr) {
      const util::StopReason reason = options.control->poll_iteration(
          engine.total_improving_relaxations());
      if (reason != util::StopReason::kNone) throw util::StopRequested(reason);
    }

    const graph::Distance threshold =
        phase + 1 > graph::kInfiniteDistance / delta
            ? graph::kInfiniteDistance
            : static_cast<graph::Distance>(phase + 1) * delta;
    frontier::IterationStats stats;
    stats.delta = static_cast<double>(threshold);

    const auto advance = engine.advance_and_filter();
    stats.x1 = advance.x1;
    stats.x2 = advance.x2;
    stats.x3 = advance.x3;
    stats.improving_relaxations = advance.improving_relaxations;

    stats.x4 = engine.bisect(threshold);
    for (const graph::VertexId v : engine.spill()) {
      const graph::Distance d = engine.distance(v);
      buckets[(d / delta) % ring].push_back({v, d});
    }
    ring_entries += engine.spill().size();
    engine.clear_spill();

    // The current bucket is exhausted: move to the next non-empty one
    // and inject its live entries (an entry is stale once its vertex
    // improved past the distance it was spilled at).
    while (engine.frontier_empty() && ring_entries > 0) {
      do {
        ++phase;
      } while (buckets[phase % ring].empty());
      std::vector<frontier::FarEntry>& bucket = buckets[phase % ring];
      stats.rebalance_items += bucket.size();
      ring_entries -= bucket.size();
      refill.clear();
      for (const frontier::FarEntry& entry : bucket)
        if (engine.distance(entry.vertex) == entry.distance)
          refill.push_back(entry.vertex);
      bucket.clear();
      engine.inject(refill);
    }

    stats.far_queue_size = ring_entries;
    result.iterations.push_back(stats);
  }

  result.improving_relaxations = engine.total_improving_relaxations();
  result.distances = engine.distances();
  result.parents = engine.parents();
  return result;
}

}  // namespace sssp::algo
