// Compressed sparse row (CSR) graph — the storage format consumed by
// every SSSP algorithm and by the frontier pipeline.
//
// Layout mirrors Gunrock's: row offsets indexed by source vertex, and
// parallel target/weight arrays. Immutable after construction, so it is
// safe to share across threads without synchronization.
//
// Two storage modes behind one interface:
//   - owning: the graph holds the three arrays on the heap (every
//     loader and generator builds these);
//   - view: the graph borrows externally owned, externally immutable
//     storage — e.g. the mmap'd binary cache (mmap_cache.hpp), where N
//     server processes share one physical copy of the arrays. The
//     caller guarantees the storage outlives the view.
// Copying an owning graph deep-copies; copying a view copies the view.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace sssp::graph {

class CsrGraph {
 public:
  CsrGraph() = default;

  // Takes ownership of pre-built arrays. offsets.size() must equal
  // num_vertices + 1, offsets.back() must equal targets.size(), and
  // targets.size() must equal weights.size(). Throws std::invalid_argument
  // otherwise.
  CsrGraph(std::vector<EdgeIndex> offsets, std::vector<VertexId> targets,
           std::vector<Weight> weights);

  // Non-owning view over externally owned storage (same structural
  // requirements and std::invalid_argument contract as the owning
  // constructor). The storage must outlive every copy of the view and
  // never change.
  static CsrGraph view(std::span<const EdgeIndex> offsets,
                       std::span<const VertexId> targets,
                       std::span<const Weight> weights);

  CsrGraph(const CsrGraph& other);
  CsrGraph& operator=(const CsrGraph& other);
  CsrGraph(CsrGraph&& other) noexcept;
  CsrGraph& operator=(CsrGraph&& other) noexcept;

  // True when this graph owns its arrays (false for mmap-backed views).
  bool owns_storage() const noexcept { return owns_; }

  std::size_t num_vertices() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t num_edges() const noexcept { return targets_.size(); }

  std::size_t out_degree(VertexId v) const {
    return static_cast<std::size_t>(offsets_[v + 1] - offsets_[v]);
  }

  // Neighbor/weight views for vertex v; spans remain valid for the
  // lifetime of the graph.
  std::span<const VertexId> neighbors(VertexId v) const {
    return {targets_.data() + offsets_[v], out_degree(v)};
  }
  std::span<const Weight> weights_of(VertexId v) const {
    return {weights_.data() + offsets_[v], out_degree(v)};
  }

  EdgeIndex edge_begin(VertexId v) const { return offsets_[v]; }
  EdgeIndex edge_end(VertexId v) const { return offsets_[v + 1]; }
  VertexId edge_target(EdgeIndex e) const { return targets_[e]; }
  Weight edge_weight(EdgeIndex e) const { return weights_[e]; }

  std::span<const EdgeIndex> offsets() const noexcept { return offsets_; }
  std::span<const VertexId> targets() const noexcept { return targets_; }
  std::span<const Weight> weights() const noexcept { return weights_; }

  // Mean weight over all edges (the far-queue partitioner seeds its first
  // boundary with this, per the paper Section 4.6). 0 for edgeless graphs.
  // Computed once at construction.
  double mean_edge_weight() const noexcept { return mean_edge_weight_; }

  // Structural validation: offsets monotone, targets in range. Throws
  // std::invalid_argument describing the first violation.
  void validate() const;

  // Approximate heap footprint in bytes. 0 for views: the bytes belong
  // to the external storage (e.g. file-backed pages shared across
  // processes), not to this object.
  std::size_t memory_bytes() const noexcept;

 private:
  CsrGraph(std::span<const EdgeIndex> offsets, std::span<const VertexId> targets,
           std::span<const Weight> weights, bool check);

  // Points the access spans at the owned vectors.
  void rebind() noexcept;
  // Shared structural checks of the access spans.
  void check_shape() const;

  // Access path: every accessor reads these spans, which alias either
  // the owned vectors below or external storage.
  std::span<const EdgeIndex> offsets_;
  std::span<const VertexId> targets_;
  std::span<const Weight> weights_;
  bool owns_ = true;
  double mean_edge_weight_ = 0.0;

  std::vector<EdgeIndex> offsets_store_;
  std::vector<VertexId> targets_store_;
  std::vector<Weight> weights_store_;
};

}  // namespace sssp::graph
