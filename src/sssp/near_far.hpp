// The baseline near-far SSSP of Davidson et al. as implemented in
// Gunrock (paper Section 3): a static user-chosen delta partitions the
// frontier into a near queue (processed now) and a far queue (postponed).
#pragma once

#include "graph/csr.hpp"
#include "sssp/result.hpp"
#include "util/run_control.hpp"

namespace sssp::algo {

struct NearFarOptions {
  // Phase width. 0 selects mean edge weight (a common rule of thumb).
  graph::Distance delta = 0;
  // Safety valve for pathological inputs (0 = unlimited).
  std::size_t max_iterations = 0;
  // Cooperative cancellation (deadline / signal / stall): polled each
  // iteration and inside the engine stages; a stop request aborts the
  // run with util::StopRequested. Not owned; may be null.
  util::RunControl* control = nullptr;
  // When false, the per-iteration control->poll_iteration() call is
  // skipped: the stall watchdog's bookkeeping is not thread-safe, so
  // runs sharing one RunControl across pool threads (the batch
  // engine's independent lanes, sssp/batch_engine.hpp) disable it and
  // rely on the engine's should_abort() polls, which are atomic.
  bool iteration_poll = true;
};

SsspResult near_far(const graph::CsrGraph& graph, graph::VertexId source,
                    const NearFarOptions& options = {});

}  // namespace sssp::algo
