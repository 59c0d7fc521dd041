// Controller generalization #2: push-based ("residual") PageRank with a
// tunable activation threshold.
//
// The push formulation keeps a residual r[v] per vertex; vertices whose
// residual exceeds a threshold epsilon form the frontier, absorb their
// residual into their rank, and push damping * r[v] / out_degree(v) to
// their neighbors. Epsilon plays the role delta plays in near-far:
// lowering it admits more vertices per iteration (more parallelism),
// raising it postpones low-residual work. A multiplicative feedback loop
// on epsilon holds the per-iteration edge work (X2) at the set-point P —
// the same algorithmic-knob idea applied to a node-ranking primitive,
// exactly the extension the paper's conclusion proposes.
//
// Convergence: the algorithm terminates when every residual falls below
// `tolerance`; the resulting ranks match power iteration to within
// O(tolerance) in L1 (property-tested).
#pragma once

#include <cstdint>
#include <vector>

#include "frontier/stats.hpp"
#include "graph/csr.hpp"

namespace sssp::core {

struct TunablePageRankOptions {
  double damping = 0.85;
  // Residual convergence threshold (the floor below which work is never
  // admitted, so the run terminates).
  double tolerance = 1e-6;
  // Parallelism set-point on per-iteration edge work; 0 disables the
  // controller (plain epsilon = tolerance sweep, maximum parallelism).
  double set_point = 0.0;
  // Feedback gain of the multiplicative epsilon controller.
  double gain = 0.5;
};

struct TunablePageRankResult {
  std::vector<double> ranks;  // sums to ~1 over all vertices
  std::vector<frontier::IterationStats> iterations;
  double average_parallelism = 0.0;
  bool converged = false;
};

TunablePageRankResult tunable_pagerank(const graph::CsrGraph& graph,
                                       const TunablePageRankOptions& options);

// Reference: dense power iteration (for property tests).
std::vector<double> pagerank_power_iteration(const graph::CsrGraph& graph,
                                             double damping,
                                             std::size_t iterations);

}  // namespace sssp::core
