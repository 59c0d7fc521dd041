// Common result type for all SSSP algorithms: exact distances plus the
// per-iteration trace needed by the controller analysis and the device
// simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "frontier/stats.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "sim/workload.hpp"

namespace sssp::algo {

struct SsspResult {
  std::string algorithm;
  graph::VertexId source = 0;
  std::vector<graph::Distance> distances;
  // Shortest-path-tree parents: parents[v] is the predecessor of v on a
  // shortest path from the source (kInvalidVertex if unreached; the
  // source is its own parent). Empty if the algorithm did not record
  // them.
  std::vector<graph::VertexId> parents;
  // Per-iteration pipeline statistics (empty for algorithms that do not
  // run the near-far pipeline, e.g. Dijkstra).
  std::vector<frontier::IterationStats> iterations;
  // Successful (distance-improving) relaxations — the work-efficiency
  // metric. A work-optimal run performs one per reachable vertex.
  std::uint64_t improving_relaxations = 0;
  // Total host wall-clock spent inside the controller (0 for baselines).
  double controller_seconds = 0.0;
  // Self-healing control-plane lifetime counts (docs/ROBUSTNESS.md);
  // all 0 for baselines and for healthy self-tuning runs.
  std::uint64_t controller_degradations = 0;
  std::uint64_t controller_recoveries = 0;
  std::uint64_t controller_rejected_inputs = 0;
  // Online invariant audits (verify/auditor.hpp) executed during the
  // run and the violations they found; both 0 when auditing was off.
  std::uint64_t audits_run = 0;
  std::uint64_t audit_violations = 0;

  std::size_t num_iterations() const noexcept { return iterations.size(); }

  // Vertices with a finite distance.
  std::size_t reached_count() const noexcept;

  // Mean of X2 over all iterations — the paper's "average parallelism".
  double average_parallelism() const noexcept;

  // Converts the iteration trace into a simulator workload.
  sim::RunWorkload to_workload(const std::string& dataset) const;
};

// Verifies `result` against reference distances (e.g. Dijkstra's);
// returns the number of mismatching vertices (0 == exact).
std::size_t count_distance_mismatches(
    const std::vector<graph::Distance>& got,
    const std::vector<graph::Distance>& expected);

// Reconstructs the shortest path source -> target by walking parents.
// Returns the vertex sequence including both endpoints; empty when the
// target is unreachable or parents were not recorded. Throws
// std::logic_error on a corrupt parent chain (cycle / length overflow).
std::vector<graph::VertexId> reconstruct_path(const SsspResult& result,
                                              graph::VertexId target);

// Validates the whole shortest-path tree against the graph: for every
// reached non-source vertex there must be an edge parent->v whose
// weight closes the distance exactly (dist[parent] + w == dist[v]).
// Returns the number of violating vertices (0 == valid tree).
std::size_t count_tree_violations(const graph::CsrGraph& graph,
                                  const SsspResult& result);

}  // namespace sssp::algo
