#include "core/tunable_pagerank.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sssp::core {

TunablePageRankResult tunable_pagerank(const graph::CsrGraph& graph,
                                       const TunablePageRankOptions& options) {
  if (options.damping <= 0.0 || options.damping >= 1.0)
    throw std::invalid_argument("tunable_pagerank: damping must be in (0,1)");
  if (options.tolerance <= 0.0)
    throw std::invalid_argument("tunable_pagerank: tolerance must be > 0");
  if (options.gain <= 0.0)
    throw std::invalid_argument("tunable_pagerank: gain must be > 0");

  const std::size_t n = graph.num_vertices();
  TunablePageRankResult result;
  result.ranks.assign(n, 0.0);
  if (n == 0) {
    result.converged = true;
    return result;
  }

  // Residual push formulation: rank absorbs residual, residual flows
  // along edges scaled by damping / out_degree.
  std::vector<double> residual(n, (1.0 - options.damping) /
                                      static_cast<double>(n));
  // `active` holds every vertex whose residual exceeds the tolerance;
  // epsilon partitions it into the frontier (pushed now) and the
  // postponed remainder — the near/far split on the residual metric.
  std::vector<graph::VertexId> active(n);
  std::vector<std::uint8_t> in_active(n, 1);
  for (graph::VertexId v = 0; v < n; ++v) active[v] = v;

  double epsilon = options.tolerance;
  std::vector<graph::VertexId> frontier, postponed;

  // Residual ties (e.g. the uniform start) make epsilon alone unable to
  // split a cohort; cap the admitted count so per-iteration edge work
  // stays near the set-point even then.
  const double avg_degree =
      std::max(1.0, static_cast<double>(graph.num_edges()) /
                        static_cast<double>(n));
  const std::size_t max_frontier =
      options.set_point > 0.0
          ? static_cast<std::size_t>(
                std::max(1.0, options.set_point / avg_degree))
          : std::numeric_limits<std::size_t>::max();

  while (!active.empty()) {
    // Partition the active set by the current epsilon; if nothing
    // qualifies, relax epsilon toward the tolerance floor (forced
    // progress, as in the SSSP rebalancer).
    frontier.clear();
    postponed.clear();
    for (;;) {
      for (const graph::VertexId v : active) {
        (residual[v] > epsilon ? frontier : postponed).push_back(v);
      }
      if (!frontier.empty() || epsilon <= options.tolerance) break;
      epsilon = std::max(options.tolerance, epsilon / 4.0);
      postponed.clear();
    }
    if (frontier.empty()) break;  // every residual at/below tolerance

    // Tie-breaking cap: postpone the surplus beyond the admission count.
    if (frontier.size() > max_frontier) {
      postponed.insert(postponed.end(), frontier.begin() + max_frontier,
                       frontier.end());
      frontier.resize(max_frontier);
    }

    frontier::IterationStats stats;
    stats.delta = epsilon;
    stats.x1 = frontier.size();
    stats.x4 = postponed.size();

    for (const graph::VertexId v : frontier) {
      in_active[v] = 0;
      const double mass = residual[v];
      residual[v] = 0.0;
      result.ranks[v] += mass;
      const auto neighbors = graph.neighbors(v);
      stats.x2 += neighbors.size();
      if (neighbors.empty()) continue;  // dangling: mass retained in rank
      const double share = options.damping * mass /
                           static_cast<double>(neighbors.size());
      for (const graph::VertexId w : neighbors) {
        residual[w] += share;
        ++stats.improving_relaxations;
        if (!in_active[w] && residual[w] > options.tolerance) {
          in_active[w] = 1;
          postponed.push_back(w);
          ++stats.x3;
        }
      }
    }
    // Pushed vertices may have been re-activated by their own cohort;
    // keep those that crossed the tolerance again.
    active.clear();
    for (const graph::VertexId v : postponed) {
      if (residual[v] > options.tolerance) {
        in_active[v] = 1;
        active.push_back(v);
      } else {
        in_active[v] = 0;
      }
    }

    // The knob: multiplicative feedback holding edge work at P.
    if (options.set_point > 0.0 && stats.x2 > 0) {
      const double error =
          (static_cast<double>(stats.x2) - options.set_point) /
          options.set_point;
      epsilon = std::clamp(epsilon * std::exp(options.gain * error),
                           options.tolerance, 1.0);
    }

    stats.far_queue_size = active.size();
    result.iterations.push_back(stats);
  }

  result.converged = active.empty();
  double sum = 0.0;
  for (const auto& it : result.iterations)
    sum += static_cast<double>(it.x2);
  result.average_parallelism =
      result.iterations.empty()
          ? 0.0
          : sum / static_cast<double>(result.iterations.size());
  return result;
}

std::vector<double> pagerank_power_iteration(const graph::CsrGraph& graph,
                                             double damping,
                                             std::size_t iterations) {
  const std::size_t n = graph.num_vertices();
  std::vector<double> x(n, n ? 1.0 / static_cast<double>(n) : 0.0);
  std::vector<double> next(n);
  const double teleport = n ? (1.0 - damping) / static_cast<double>(n) : 0.0;
  for (std::size_t k = 0; k < iterations; ++k) {
    std::fill(next.begin(), next.end(), teleport);
    for (graph::VertexId u = 0; u < n; ++u) {
      const auto neighbors = graph.neighbors(u);
      if (neighbors.empty()) continue;  // dangling mass dropped, matching
                                        // the push formulation above
      const double share =
          damping * x[u] / static_cast<double>(neighbors.size());
      for (const graph::VertexId v : neighbors) next[v] += share;
    }
    x.swap(next);
  }
  return x;
}

}  // namespace sssp::core
