// Frontier-based Bellman-Ford — the "maximum redundant work" end of the
// SSSP design space, used as a comparison point. It is the stepping
// loop (sssp/stepping.cpp) at an infinite threshold (Dong et al.,
// arXiv:2105.06145): every improved vertex stays in the next frontier
// and the far queue stays empty, so each iteration is one full
// Bellman-Ford round.
#pragma once

#include "graph/csr.hpp"
#include "sssp/result.hpp"
#include "util/run_control.hpp"

namespace sssp::algo {

// `control`, when set, is polled as near_far polls it: a stop request
// aborts the run with util::StopRequested. Not owned.
SsspResult bellman_ford(const graph::CsrGraph& graph, graph::VertexId source,
                        util::RunControl* control = nullptr);

}  // namespace sssp::algo
