#include "core/tunable_bfs.hpp"

#include <stdexcept>

namespace sssp::core {

TunableBfsResult tunable_bfs(const graph::CsrGraph& graph,
                             graph::VertexId source,
                             const TunableBfsOptions& options) {
  if (options.set_point <= 0.0)
    throw std::invalid_argument("tunable_bfs: set_point must be > 0");

  // Unit-weight view: same topology, hop metric.
  graph::CsrGraph unit(
      {graph.offsets().begin(), graph.offsets().end()},
      {graph.targets().begin(), graph.targets().end()},
      std::vector<graph::Weight>(graph.num_edges(), 1));

  SelfTuningOptions tuning;
  tuning.set_point = options.set_point;
  tuning.initial_delta = 1.0;  // start level-synchronous, let it adapt
  algo::SsspResult run = self_tuning_sssp(unit, source, tuning);

  TunableBfsResult result;
  result.levels = std::move(run.distances);
  result.iterations = std::move(run.iterations);
  double sum = 0.0;
  for (const auto& it : result.iterations)
    sum += static_cast<double>(it.x2);
  result.average_parallelism =
      result.iterations.empty()
          ? 0.0
          : sum / static_cast<double>(result.iterations.size());
  return result;
}

std::vector<graph::Distance> bfs_levels(const graph::CsrGraph& graph,
                                        graph::VertexId source) {
  if (source >= graph.num_vertices())
    throw std::invalid_argument("bfs_levels: source out of range");
  std::vector<graph::Distance> level(graph.num_vertices(),
                                     graph::kInfiniteDistance);
  std::vector<graph::VertexId> frontier{source};
  std::vector<graph::VertexId> next;
  level[source] = 0;
  graph::Distance depth = 0;
  while (!frontier.empty()) {
    ++depth;
    next.clear();
    for (const graph::VertexId u : frontier) {
      for (const graph::VertexId v : graph.neighbors(u)) {
        if (level[v] == graph::kInfiniteDistance) {
          level[v] = depth;
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return level;
}

}  // namespace sssp::core
