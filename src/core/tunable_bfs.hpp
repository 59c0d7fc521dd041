// Controller generalization #1 (paper Section 6: "many of the other
// graph computations have a similar structure ... our controller might
// be adapted"): breadth-first search with self-tuned parallelism.
//
// BFS is SSSP with unit weights: the near-far delta becomes a depth
// window on the hop metric (KLA's k [21], tuned per iteration). Note
// the control is one-sided for BFS — discovery is inherently one level
// per advance, so the knob cannot create parallelism beyond a level's
// natural width; what it does is *cap* wide levels by postponing part
// of a level to later iterations (the burst-limiting half of the
// paper's mechanism, which is the half that matters for power).
#pragma once

#include <vector>

#include "core/self_tuning.hpp"
#include "graph/csr.hpp"

namespace sssp::core {

struct TunableBfsOptions {
  double set_point = 0.0;  // required, > 0
};

struct TunableBfsResult {
  // Hop count per vertex; kInfiniteDistance when unreachable.
  std::vector<graph::Distance> levels;
  std::vector<frontier::IterationStats> iterations;
  double average_parallelism = 0.0;
};

// Self-tuning BFS. Levels are exact (property-tested against the plain
// level-synchronous reference below).
TunableBfsResult tunable_bfs(const graph::CsrGraph& graph,
                             graph::VertexId source,
                             const TunableBfsOptions& options);

// Reference: plain level-synchronous BFS (one level per iteration).
std::vector<graph::Distance> bfs_levels(const graph::CsrGraph& graph,
                                        graph::VertexId source);

}  // namespace sssp::core
