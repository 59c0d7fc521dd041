#include "graph/csr.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

namespace sssp::graph {

namespace {

// Sums the weights in edge order: the one summation order every
// default delta, and so every iteration trace, depends on.
double mean_of(std::span<const Weight> weights) noexcept {
  if (weights.empty()) return 0.0;
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  return total / static_cast<double>(weights.size());
}

}  // namespace

CsrGraph::CsrGraph(std::vector<EdgeIndex> offsets, std::vector<VertexId> targets,
                   std::vector<Weight> weights)
    : owns_(true),
      offsets_store_(std::move(offsets)),
      targets_store_(std::move(targets)),
      weights_store_(std::move(weights)) {
  rebind();
  check_shape();
  mean_edge_weight_ = mean_of(weights_);
}

CsrGraph::CsrGraph(std::span<const EdgeIndex> offsets,
                   std::span<const VertexId> targets,
                   std::span<const Weight> weights, bool check)
    : offsets_(offsets), targets_(targets), weights_(weights), owns_(false) {
  if (check) check_shape();
  mean_edge_weight_ = mean_of(weights_);
}

CsrGraph CsrGraph::view(std::span<const EdgeIndex> offsets,
                        std::span<const VertexId> targets,
                        std::span<const Weight> weights) {
  return CsrGraph(offsets, targets, weights, /*check=*/true);
}

CsrGraph::CsrGraph(const CsrGraph& other)
    : owns_(other.owns_),
      mean_edge_weight_(other.mean_edge_weight_),
      offsets_store_(other.offsets_store_),
      targets_store_(other.targets_store_),
      weights_store_(other.weights_store_) {
  if (owns_) {
    rebind();
  } else {
    offsets_ = other.offsets_;
    targets_ = other.targets_;
    weights_ = other.weights_;
  }
}

CsrGraph& CsrGraph::operator=(const CsrGraph& other) {
  if (this == &other) return *this;
  owns_ = other.owns_;
  mean_edge_weight_ = other.mean_edge_weight_;
  offsets_store_ = other.offsets_store_;
  targets_store_ = other.targets_store_;
  weights_store_ = other.weights_store_;
  if (owns_) {
    rebind();
  } else {
    offsets_ = other.offsets_;
    targets_ = other.targets_;
    weights_ = other.weights_;
  }
  return *this;
}

CsrGraph::CsrGraph(CsrGraph&& other) noexcept
    : owns_(other.owns_),
      mean_edge_weight_(other.mean_edge_weight_),
      offsets_store_(std::move(other.offsets_store_)),
      targets_store_(std::move(other.targets_store_)),
      weights_store_(std::move(other.weights_store_)) {
  // Moving a vector transfers its buffer, so rebinding after the move
  // (owning) or copying the spans (view) both stay valid.
  if (owns_) {
    rebind();
  } else {
    offsets_ = other.offsets_;
    targets_ = other.targets_;
    weights_ = other.weights_;
  }
  other.offsets_ = {};
  other.targets_ = {};
  other.weights_ = {};
  other.owns_ = true;
  other.mean_edge_weight_ = 0.0;
}

CsrGraph& CsrGraph::operator=(CsrGraph&& other) noexcept {
  if (this == &other) return *this;
  owns_ = other.owns_;
  mean_edge_weight_ = other.mean_edge_weight_;
  offsets_store_ = std::move(other.offsets_store_);
  targets_store_ = std::move(other.targets_store_);
  weights_store_ = std::move(other.weights_store_);
  if (owns_) {
    rebind();
  } else {
    offsets_ = other.offsets_;
    targets_ = other.targets_;
    weights_ = other.weights_;
  }
  other.offsets_ = {};
  other.targets_ = {};
  other.weights_ = {};
  other.owns_ = true;
  other.mean_edge_weight_ = 0.0;
  return *this;
}

void CsrGraph::rebind() noexcept {
  offsets_ = offsets_store_;
  targets_ = targets_store_;
  weights_ = weights_store_;
}

void CsrGraph::check_shape() const {
  if (offsets_.empty())
    throw std::invalid_argument("CsrGraph: offsets must have >= 1 entry");
  if (offsets_.back() != targets_.size())
    throw std::invalid_argument(
        "CsrGraph: offsets.back() != targets.size() (" +
        std::to_string(offsets_.back()) + " vs " +
        std::to_string(targets_.size()) + ")");
  if (targets_.size() != weights_.size())
    throw std::invalid_argument("CsrGraph: targets/weights size mismatch");
}

void CsrGraph::validate() const {
  const std::size_t n = num_vertices();
  for (std::size_t v = 0; v < n; ++v) {
    if (offsets_[v] > offsets_[v + 1])
      throw std::invalid_argument("CsrGraph: offsets not monotone at vertex " +
                                  std::to_string(v));
  }
  for (std::size_t e = 0; e < targets_.size(); ++e) {
    if (targets_[e] >= n)
      throw std::invalid_argument("CsrGraph: edge " + std::to_string(e) +
                                  " targets out-of-range vertex " +
                                  std::to_string(targets_[e]));
  }
}

std::size_t CsrGraph::memory_bytes() const noexcept {
  return offsets_store_.capacity() * sizeof(EdgeIndex) +
         targets_store_.capacity() * sizeof(VertexId) +
         weights_store_.capacity() * sizeof(Weight);
}

}  // namespace sssp::graph
