#include "sssp/multi_source.hpp"

#include <stdexcept>

#include "graph/degree_stats.hpp"
#include "util/rng.hpp"

namespace sssp::algo {

namespace {

// Deterministic source sample: identical draws for a given seed.
std::vector<graph::VertexId> sample_sources(const graph::CsrGraph& graph,
                                            const MultiSourceOptions& options) {
  if (graph.num_vertices() == 0)
    throw std::invalid_argument("run_multi_source: empty graph");
  if (options.num_sources == 0)
    throw std::invalid_argument("run_multi_source: num_sources must be > 0");
  if (options.min_reach_fraction < 0.0 || options.min_reach_fraction > 1.0)
    throw std::invalid_argument(
        "run_multi_source: min_reach_fraction out of [0,1]");

  const auto min_reach = static_cast<std::size_t>(
      options.min_reach_fraction * static_cast<double>(graph.num_vertices()));

  util::Xoshiro256 rng(options.seed);
  std::vector<graph::VertexId> sources;
  const std::size_t max_attempts = 16 * options.num_sources;
  std::size_t attempts = 0;
  while (sources.size() < options.num_sources) {
    if (++attempts > max_attempts)
      throw std::invalid_argument(
          "run_multi_source: no sources reach the required fraction");
    const auto candidate =
        static_cast<graph::VertexId>(rng.next_below(graph.num_vertices()));
    if (min_reach > 0 &&
        graph::count_reachable(graph, candidate) < min_reach)
      continue;
    sources.push_back(candidate);
  }
  return sources;
}

}  // namespace

MultiSourceSummary run_multi_source(const graph::CsrGraph& graph,
                                    const SsspRunner& runner,
                                    const MultiSourceOptions& options) {
  MultiSourceSummary summary;
  summary.sources = sample_sources(graph, options);
  double par_sum = 0.0, iter_sum = 0.0, relax_sum = 0.0;
  for (const graph::VertexId source : summary.sources) {
    const SsspResult result = runner(graph, source);
    const double parallelism = result.average_parallelism();
    summary.average_parallelism.push_back(parallelism);
    summary.iteration_counts.push_back(result.num_iterations());
    summary.improving_relaxations.push_back(result.improving_relaxations);
    summary.all_iterations.insert(summary.all_iterations.end(),
                                  result.iterations.begin(),
                                  result.iterations.end());
    par_sum += parallelism;
    iter_sum += static_cast<double>(result.num_iterations());
    relax_sum += static_cast<double>(result.improving_relaxations);
  }
  const double k = static_cast<double>(summary.sources.size());
  summary.mean_average_parallelism = par_sum / k;
  summary.mean_iterations = iter_sum / k;
  summary.mean_improving_relaxations = relax_sum / k;
  return summary;
}

}  // namespace sssp::algo
