// Multi-source experiment aggregation. Published SSSP numbers average
// over several sources (a single source is noisy: a hub start and a
// periphery start behave very differently); this helper runs any SSSP
// callable over a deterministic source sample and aggregates the
// quantities the evaluation reports.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/csr.hpp"
#include "sssp/batch_engine.hpp"
#include "sssp/result.hpp"

namespace sssp::algo {

struct MultiSourceOptions {
  std::size_t num_sources = 8;
  std::uint64_t seed = 1;
  // Only accept sources that reach at least this fraction of vertices
  // (skips isolated pockets; 0 accepts anything). Rejected draws are
  // redrawn, up to 16x num_sources attempts.
  double min_reach_fraction = 0.25;
};

struct MultiSourceSummary {
  std::vector<graph::VertexId> sources;
  // Per-source values, index-aligned with `sources`.
  std::vector<double> average_parallelism;
  std::vector<std::size_t> iteration_counts;
  std::vector<std::uint64_t> improving_relaxations;
  // Aggregates.
  double mean_average_parallelism = 0.0;
  double mean_iterations = 0.0;
  double mean_improving_relaxations = 0.0;
  // Concatenated per-iteration traces from every run (for distribution
  // figures aggregated over sources, as in Fig. 5).
  std::vector<frontier::IterationStats> all_iterations;
};

using SsspRunner =
    std::function<SsspResult(const graph::CsrGraph&, graph::VertexId)>;

// Samples sources deterministically from `seed` and runs `runner` on
// each. Throws std::invalid_argument for an empty graph, num_sources == 0,
// or when no acceptable source can be found.
MultiSourceSummary run_multi_source(const graph::CsrGraph& graph,
                                    const SsspRunner& runner,
                                    const MultiSourceOptions& options = {});

// Batched variant: same deterministic source sample (identical draws
// for a given seed), but the runs go through the batched multi-source
// engine (batch_engine.hpp) in groups of up to kMaxBatchLanes instead
// of one solve per source. Per-source aggregates are taken from each
// lane's SsspResult, which carries that source's own iteration trace.
MultiSourceSummary run_multi_source(const graph::CsrGraph& graph,
                                    const BatchOptions& batch,
                                    const MultiSourceOptions& options = {});

}  // namespace sssp::algo
