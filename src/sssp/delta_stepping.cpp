#include "sssp/delta_stepping.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace sssp::algo {
namespace {

graph::Distance heuristic_delta(const graph::CsrGraph& graph,
                                graph::Weight max_weight) {
  std::size_t max_degree = 1;
  for (std::size_t v = 0; v < graph.num_vertices(); ++v)
    max_degree = std::max(max_degree,
                          graph.out_degree(static_cast<graph::VertexId>(v)));
  return std::max<graph::Distance>(1, max_weight / max_degree);
}

}  // namespace

SsspResult delta_stepping(const graph::CsrGraph& graph,
                          graph::VertexId source,
                          const DeltaSteppingOptions& options) {
  if (source >= graph.num_vertices())
    throw std::invalid_argument("delta_stepping: source out of range");

  graph::Weight max_weight = 1;
  for (const graph::Weight w : graph.weights())
    max_weight = std::max(max_weight, w);
  const graph::Distance delta =
      options.delta > 0 ? options.delta : heuristic_delta(graph, max_weight);

  const std::size_t n = graph.num_vertices();
  std::vector<graph::Distance> dist(n, graph::kInfiniteDistance);
  std::vector<graph::VertexId> parent(n, graph::kInvalidVertex);
  dist[source] = 0;
  parent[source] = source;

  // Cyclic bucket array; bucket index = dist / delta mod num_buckets.
  // num_buckets only needs to exceed (max_weight / delta) + 1 so that
  // in-flight relaxations never wrap onto the active bucket.
  const std::size_t num_buckets =
      static_cast<std::size_t>(max_weight / delta) + 2;
  std::vector<std::vector<graph::VertexId>> buckets(num_buckets);

  auto bucket_of = [&](graph::Distance d) {
    return static_cast<std::size_t>((d / delta) % num_buckets);
  };
  buckets[bucket_of(0)].push_back(source);

  SsspResult result;
  result.algorithm = "delta-stepping";
  result.source = source;

  std::size_t current = bucket_of(0);
  std::uint64_t base_bucket = 0;  // absolute index of `current`
  std::size_t remaining = 1;      // total vertices across buckets (upper bound)

  std::vector<graph::VertexId> deleted;  // settled-this-phase set
  while (remaining > 0) {
    // Find next non-empty bucket (cyclic scan).
    std::size_t scanned = 0;
    while (buckets[current].empty() && scanned < num_buckets) {
      current = (current + 1) % num_buckets;
      ++base_bucket;
      ++scanned;
    }
    if (buckets[current].empty()) break;

    const graph::Distance phase_lo =
        static_cast<graph::Distance>(base_bucket) * delta;
    const graph::Distance phase_hi = phase_lo + delta;

    deleted.clear();
    // Inner loop: relax light edges (w < delta) until the bucket stops
    // refilling; collect unique settled vertices in `deleted`.
    while (!buckets[current].empty()) {
      std::vector<graph::VertexId> request =
          std::move(buckets[current]);
      buckets[current].clear();

      frontier::IterationStats stats;
      stats.delta = static_cast<double>(delta);
      std::uint64_t processed = 0;
      for (const graph::VertexId u : request) {
        const graph::Distance du = dist[u];
        if (du < phase_lo || du >= phase_hi) continue;  // stale or moved on
        ++processed;
        deleted.push_back(u);
        const auto neighbors = graph.neighbors(u);
        const auto weights = graph.weights_of(u);
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
          if (weights[i] >= delta) continue;  // heavy: postponed
          ++stats.x2;
          const graph::VertexId v = neighbors[i];
          const graph::Distance nd = du + weights[i];
          if (nd < dist[v]) {
            dist[v] = nd;
            parent[v] = u;
            ++stats.improving_relaxations;
            buckets[bucket_of(nd)].push_back(v);
            ++remaining;
          }
        }
      }
      stats.x1 = processed;
      stats.x3 = stats.improving_relaxations;
      stats.x4 = buckets[current].size();
      result.improving_relaxations += stats.improving_relaxations;
      if (processed > 0) result.iterations.push_back(stats);
      remaining = remaining > request.size() ? remaining - request.size() : 0;
    }

    // Phase end: relax heavy edges of everything settled this phase.
    frontier::IterationStats heavy_stats;
    heavy_stats.delta = static_cast<double>(delta);
    heavy_stats.x1 = deleted.size();
    for (const graph::VertexId u : deleted) {
      const graph::Distance du = dist[u];
      if (du < phase_lo || du >= phase_hi) continue;
      const auto neighbors = graph.neighbors(u);
      const auto weights = graph.weights_of(u);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        if (weights[i] < delta) continue;
        ++heavy_stats.x2;
        const graph::VertexId v = neighbors[i];
        const graph::Distance nd = du + weights[i];
        if (nd < dist[v]) {
          dist[v] = nd;
          parent[v] = u;
          ++heavy_stats.improving_relaxations;
          buckets[bucket_of(nd)].push_back(v);
          ++remaining;
        }
      }
    }
    if (heavy_stats.x2 > 0) {
      heavy_stats.x3 = heavy_stats.improving_relaxations;
      result.improving_relaxations += heavy_stats.improving_relaxations;
      result.iterations.push_back(heavy_stats);
    }
  }

  result.distances = std::move(dist);
  result.parents = std::move(parent);
  return result;
}

}  // namespace sssp::algo
