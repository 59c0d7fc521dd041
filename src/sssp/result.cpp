#include "sssp/result.hpp"

#include <algorithm>
#include <climits>
#include <stdexcept>

namespace sssp::algo {

std::size_t SsspResult::reached_count() const noexcept {
  std::size_t count = 0;
  for (const graph::Distance d : distances)
    if (d != graph::kInfiniteDistance) ++count;
  return count;
}

double SsspResult::average_parallelism() const noexcept {
  if (iterations.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& it : iterations) sum += static_cast<double>(it.x2);
  return sum / static_cast<double>(iterations.size());
}

sim::RunWorkload SsspResult::to_workload(const std::string& dataset) const {
  sim::RunWorkload workload;
  workload.algorithm = algorithm;
  workload.dataset = dataset;
  workload.iterations.reserve(iterations.size());
  for (const auto& it : iterations)
    workload.iterations.push_back(it.to_work());
  return workload;
}

std::vector<graph::VertexId> reconstruct_path(const SsspResult& result,
                                              graph::VertexId target) {
  std::vector<graph::VertexId> path;
  if (result.parents.empty() || target >= result.parents.size()) return path;
  if (result.distances[target] == graph::kInfiniteDistance) return path;

  graph::VertexId v = target;
  while (true) {
    path.push_back(v);
    if (v == result.source) break;
    v = result.parents[v];
    if (v == graph::kInvalidVertex || path.size() > result.parents.size())
      throw std::logic_error("reconstruct_path: corrupt parent chain");
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::size_t count_tree_violations(const graph::CsrGraph& graph,
                                  const SsspResult& result) {
  if (result.parents.size() != graph.num_vertices()) return SIZE_MAX;
  std::size_t violations = 0;
  for (graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (result.distances[v] == graph::kInfiniteDistance) {
      if (result.parents[v] != graph::kInvalidVertex) ++violations;
      continue;
    }
    if (v == result.source) {
      if (result.parents[v] != result.source) ++violations;
      continue;
    }
    const graph::VertexId p = result.parents[v];
    if (p == graph::kInvalidVertex || p >= graph.num_vertices() ||
        result.distances[p] == graph::kInfiniteDistance) {
      ++violations;
      continue;
    }
    // An edge p->v with exactly the closing weight must exist.
    bool closed = false;
    const auto neighbors = graph.neighbors(p);
    const auto weights = graph.weights_of(p);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i] == v &&
          result.distances[p] + weights[i] == result.distances[v]) {
        closed = true;
        break;
      }
    }
    if (!closed) ++violations;
  }
  return violations;
}

std::size_t count_distance_mismatches(
    const std::vector<graph::Distance>& got,
    const std::vector<graph::Distance>& expected) {
  const std::size_t n = std::min(got.size(), expected.size());
  std::size_t mismatches =
      got.size() > expected.size() ? got.size() - expected.size()
                                   : expected.size() - got.size();
  for (std::size_t i = 0; i < n; ++i)
    if (got[i] != expected[i]) ++mismatches;
  return mismatches;
}

}  // namespace sssp::algo
