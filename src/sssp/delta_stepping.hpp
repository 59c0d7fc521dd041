// Delta-stepping (Meyer & Sanders, 2003) — the algorithm the near-far
// method derives from, included as a second baseline and for
// cross-validation. It runs near-far's stepping loop (sssp/stepping.cpp)
// one bucket of width delta at a time and keeps its far work in a
// cyclic ring of buckets, so moving to the next bucket scans only that
// bucket's entries. Unlike Meyer & Sanders' formulation it does not
// split light from heavy edges: a frontier vertex relaxes all its
// out-edges at once. The ring holds max_weight / delta + 2 buckets;
// when that would exceed max(num_vertices, 65536), the same loop keeps
// its far work in near-far's flat queue instead, which visits the same
// phases.
#pragma once

#include "graph/csr.hpp"
#include "sssp/result.hpp"
#include "util/run_control.hpp"

namespace sssp::algo {

struct DeltaSteppingOptions {
  // Bucket width. 0 selects the Meyer-Sanders heuristic
  // delta = max(1, max_weight / max_degree).
  graph::Distance delta = 0;
  // Cooperative cancellation, polled each iteration and inside the
  // engine stages; a stop request aborts the run with
  // util::StopRequested. Not owned; may be null.
  util::RunControl* control = nullptr;
};

SsspResult delta_stepping(const graph::CsrGraph& graph,
                          graph::VertexId source,
                          const DeltaSteppingOptions& options = {});

}  // namespace sssp::algo
