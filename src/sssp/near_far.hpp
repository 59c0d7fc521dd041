// The baseline near-far SSSP of Davidson et al. as implemented in
// Gunrock (paper Section 3): a static user-chosen delta partitions the
// frontier into a near queue (processed now) and a far queue (postponed).
// The far queue is flat — one partition, scanned whole to find the next
// phase — which is the stage-4 work the device model charges. It runs
// the stepping loop it shares with delta-stepping and Bellman-Ford
// (sssp/stepping.cpp).
#pragma once

#include "graph/csr.hpp"
#include "sssp/result.hpp"
#include "util/run_control.hpp"

namespace sssp::algo {

struct NearFarOptions {
  // Phase width. 0 selects default_delta(graph).
  graph::Distance delta = 0;
  // Cooperative cancellation (deadline / signal / stall): polled each
  // iteration and inside the engine stages; a stop request aborts the
  // run with util::StopRequested. Not owned; may be null.
  util::RunControl* control = nullptr;
};

// The default phase width: the mean edge weight rounded, at least 1 (a
// common rule of thumb). Self-tuning seeds its far queue's first
// boundary with the same value.
graph::Distance default_delta(const graph::CsrGraph& graph);

SsspResult near_far(const graph::CsrGraph& graph, graph::VertexId source,
                    const NearFarOptions& options = {});

}  // namespace sssp::algo
