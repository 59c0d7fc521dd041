#include "sssp/near_far.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "frontier/engine.hpp"
#include "frontier/far_queue.hpp"

namespace sssp::algo {

graph::Distance default_delta(const graph::CsrGraph& graph) {
  return static_cast<graph::Distance>(
      std::max(1.0, std::round(graph.mean_edge_weight())));
}

SsspResult near_far(const graph::CsrGraph& graph, graph::VertexId source,
                    const NearFarOptions& options) {
  const graph::Distance delta =
      options.delta != 0 ? options.delta : default_delta(graph);

  frontier::NearFarEngine engine(graph, source, {.control = options.control});
  // One MAX partition: every pull scans the whole queue (Davidson et al.).
  frontier::FarQueue far(graph::kInfiniteDistance);

  SsspResult result;
  result.algorithm = "near-far";
  result.source = source;

  // Current phase: frontier holds vertices with distance < threshold.
  std::uint64_t phase = 0;
  graph::Distance threshold = delta;

  std::vector<graph::VertexId> refill;
  while (!engine.frontier_empty()) {
    if (options.control != nullptr && options.iteration_poll) {
      const util::StopReason reason = options.control->poll_iteration(
          engine.total_improving_relaxations());
      if (reason != util::StopReason::kNone) throw util::StopRequested(reason);
    }

    frontier::IterationStats stats;
    stats.delta = static_cast<double>(threshold);

    const auto advance = engine.advance_and_filter();
    stats.x1 = advance.x1;
    stats.x2 = advance.x2;
    stats.x3 = advance.x3;
    stats.improving_relaxations = advance.improving_relaxations;

    stats.x4 = engine.bisect(threshold);
    far.push_bulk(engine.spill(), engine.distances());
    engine.clear_spill();

    // Stage 4 — bisect-far-queue: when the near queue is exhausted,
    // advance the phase to the first one containing live far work.
    if (engine.frontier_empty() && !far.empty()) {
      const graph::Distance next_live = far.min_live_distance(engine.distances());
      stats.rebalance_items += far.size();
      if (next_live != graph::kInfiniteDistance) {
        phase = static_cast<std::uint64_t>(next_live / delta);
        threshold = static_cast<graph::Distance>(phase + 1) * delta;
        refill.clear();
        stats.rebalance_items += far.pull_below(threshold, engine.distances(), refill);
        engine.inject(refill);
      } else {
        far.clear();  // everything stale: drop it
      }
    }

    stats.far_queue_size = far.size();
    result.iterations.push_back(stats);
  }

  result.improving_relaxations = engine.total_improving_relaxations();
  result.distances = engine.distances();
  result.parents = engine.parents();
  return result;
}

}  // namespace sssp::algo
