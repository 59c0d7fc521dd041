#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

namespace sssp::graph {
namespace {

CsrGraph make_triangle() {
  // 0->1 (w=5), 0->2 (w=3), 1->2 (w=1)
  return CsrGraph({0, 2, 3, 3}, {1, 2, 2}, {5, 3, 1});
}

TEST(CsrGraph, EmptyGraph) {
  CsrGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_DOUBLE_EQ(g.mean_edge_weight(), 0.0);
}

TEST(CsrGraph, BasicAccessors) {
  const CsrGraph g = make_triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(1), 1u);
  EXPECT_EQ(g.out_degree(2), 0u);

  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  const auto w0 = g.weights_of(0);
  EXPECT_EQ(w0[0], 5u);
  EXPECT_EQ(w0[1], 3u);
}

TEST(CsrGraph, EdgeIndexAccessors) {
  const CsrGraph g = make_triangle();
  EXPECT_EQ(g.edge_begin(1), 2u);
  EXPECT_EQ(g.edge_end(1), 3u);
  EXPECT_EQ(g.edge_target(2), 2u);
  EXPECT_EQ(g.edge_weight(2), 1u);
}

TEST(CsrGraph, MeanEdgeWeight) {
  const CsrGraph g = make_triangle();
  EXPECT_DOUBLE_EQ(g.mean_edge_weight(), 3.0);
}

// The mean is computed once, at construction, and every copy, move and
// view carries the very value a fresh edge-order sum gives: default
// deltas, iteration traces and checksums depend on its last bit.
TEST(CsrGraph, MeanEdgeWeightSurvivesCopyMoveAndView) {
  std::vector<EdgeIndex> offsets = {0};
  std::vector<VertexId> targets;
  std::vector<Weight> weights;
  for (VertexId v = 0; v < 100; ++v) {
    for (VertexId k = 0; k < 3; ++k) {
      targets.push_back((v + k + 1) % 100);
      weights.push_back(1 + (v * 2654435761u + k * 40503u) % 99991u);
    }
    offsets.push_back(targets.size());
  }
  const double expected =
      std::accumulate(weights.begin(), weights.end(), 0.0) /
      static_cast<double>(weights.size());

  const CsrGraph view = CsrGraph::view(offsets, targets, weights);
  EXPECT_EQ(view.mean_edge_weight(), expected);
  const CsrGraph view_copy = view;
  EXPECT_EQ(view_copy.mean_edge_weight(), expected);

  CsrGraph owner(offsets, targets, weights);
  EXPECT_EQ(owner.mean_edge_weight(), expected);
  const CsrGraph copy = owner;
  EXPECT_EQ(copy.mean_edge_weight(), expected);
  CsrGraph assigned;
  assigned = copy;
  EXPECT_EQ(assigned.mean_edge_weight(), expected);
  const CsrGraph moved = std::move(owner);
  EXPECT_EQ(moved.mean_edge_weight(), expected);
  CsrGraph move_assigned;
  move_assigned = std::move(assigned);
  EXPECT_EQ(move_assigned.mean_edge_weight(), expected);
}

TEST(CsrGraph, ValidatePasses) {
  EXPECT_NO_THROW(make_triangle().validate());
}

TEST(CsrGraph, ConstructorRejectsMismatchedSizes) {
  EXPECT_THROW(CsrGraph({0, 1}, {0, 0}, {1, 1}), std::invalid_argument);
  EXPECT_THROW(CsrGraph({0, 2}, {0, 0}, {1}), std::invalid_argument);
  EXPECT_THROW(CsrGraph({}, {}, {}), std::invalid_argument);
}

TEST(CsrGraph, ValidateCatchesOutOfRangeTarget) {
  const CsrGraph g({0, 1}, {5}, {1});  // vertex 5 doesn't exist
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(CsrGraph, MemoryBytesNonzero) {
  EXPECT_GT(make_triangle().memory_bytes(), 0u);
}

// View mode: the accessor path over external storage (how the mmap
// cache exposes a file-backed graph without copying it).
TEST(CsrGraphView, AliasesExternalStorageWithoutOwningIt) {
  const std::vector<EdgeIndex> offsets = {0, 2, 3, 3};
  const std::vector<VertexId> targets = {1, 2, 2};
  const std::vector<Weight> weights = {5, 3, 1};
  const CsrGraph v = CsrGraph::view(offsets, targets, weights);
  EXPECT_FALSE(v.owns_storage());
  EXPECT_EQ(v.memory_bytes(), 0u);  // the bytes belong to the vectors
  EXPECT_EQ(v.num_vertices(), 3u);
  EXPECT_EQ(v.num_edges(), 3u);
  EXPECT_EQ(v.targets().data(), targets.data());  // zero-copy
  EXPECT_EQ(v.neighbors(0).size(), 2u);
  EXPECT_EQ(v.edge_weight(2), 1u);
}

TEST(CsrGraphView, RejectsMalformedShape) {
  const std::vector<EdgeIndex> offsets = {0, 2};  // declares 2 edges
  const std::vector<VertexId> targets = {1};
  const std::vector<Weight> weights = {5};
  EXPECT_THROW(CsrGraph::view(offsets, targets, weights),
               std::invalid_argument);
}

TEST(CsrGraphView, CopyOfAViewAliasesTheSameStorage) {
  // Documented contract: copies of a view stay views — the external
  // storage must outlive all of them (true by construction for the
  // mmap cache, whose MmapGraph owns both mapping and view).
  const std::vector<EdgeIndex> offsets = {0, 1, 1};
  const std::vector<VertexId> targets = {1};
  const std::vector<Weight> weights = {7};
  const CsrGraph v = CsrGraph::view(offsets, targets, weights);
  const CsrGraph copy = v;
  EXPECT_FALSE(copy.owns_storage());
  EXPECT_EQ(copy.targets().data(), targets.data());
  EXPECT_EQ(copy.memory_bytes(), 0u);
}

TEST(CsrGraphView, MovedFromOwnerRebindsSpansToTheNewHome) {
  CsrGraph owner = make_triangle();
  const VertexId first_target = owner.edge_target(0);
  const CsrGraph moved = std::move(owner);
  // The access spans must alias the vectors at their *new* address —
  // a stale span into the moved-from object would be a use-after-move.
  EXPECT_TRUE(moved.owns_storage());
  EXPECT_EQ(moved.num_edges(), 3u);
  EXPECT_EQ(moved.edge_target(0), first_target);
  EXPECT_NO_THROW(moved.validate());
}

}  // namespace
}  // namespace sssp::graph
