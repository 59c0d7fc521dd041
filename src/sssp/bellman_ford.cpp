#include "sssp/bellman_ford.hpp"

#include "sssp/near_far.hpp"

namespace sssp::algo {

SsspResult bellman_ford(const graph::CsrGraph& graph, graph::VertexId source,
                        util::RunControl* control) {
  SsspResult result = near_far(
      graph, source, {.delta = graph::kInfiniteDistance, .control = control});
  result.algorithm = "bellman-ford";
  return result;
}

}  // namespace sssp::algo
