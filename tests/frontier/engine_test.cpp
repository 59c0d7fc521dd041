#include "frontier/engine.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "fault/failpoint.hpp"
#include "graph/builder.hpp"
#include "obs/metrics.hpp"
#include "tests/sssp/test_graphs.hpp"

namespace sssp::frontier {
namespace {

using graph::CsrGraph;
using graph::Edge;
using graph::kInfiniteDistance;
using graph::VertexId;

// 0 -5-> 1 -1-> 2, 0 -3-> 2, 2 -2-> 3
CsrGraph diamond() {
  return graph::build_csr(
      4, {{0, 1, 5}, {1, 2, 1}, {0, 2, 3}, {2, 3, 2}});
}

TEST(NearFarEngine, InitialState) {
  const CsrGraph g = diamond();
  NearFarEngine engine(g, 0);
  EXPECT_EQ(engine.frontier_size(), 1u);
  EXPECT_EQ(engine.frontier()[0], 0u);
  EXPECT_EQ(engine.distance(0), 0u);
  EXPECT_EQ(engine.distance(3), kInfiniteDistance);
  EXPECT_EQ(engine.source(), 0u);
}

TEST(NearFarEngine, RejectsOutOfRangeSource) {
  const CsrGraph g = diamond();
  EXPECT_THROW(NearFarEngine(g, 7), std::invalid_argument);
}

TEST(NearFarEngine, AdvanceRelaxesAllFrontierEdges) {
  const CsrGraph g = diamond();
  NearFarEngine engine(g, 0);
  const auto result = engine.advance_and_filter();
  EXPECT_EQ(result.x1, 1u);
  EXPECT_EQ(result.x2, 2u);  // edges 0->1, 0->2
  EXPECT_EQ(result.improving_relaxations, 2u);
  EXPECT_EQ(result.x3, 2u);
  EXPECT_EQ(engine.distance(1), 5u);
  EXPECT_EQ(engine.distance(2), 3u);
  EXPECT_TRUE(engine.frontier_empty());  // consumed; awaiting bisect
}

TEST(NearFarEngine, FilterDeduplicatesUpdatedFrontier) {
  // Two paths into vertex 2 from one frontier: both improve, one entry.
  const CsrGraph g = graph::build_csr(3, {{0, 1, 1}, {0, 2, 10}, {1, 2, 1}});
  NearFarEngine engine(g, 0);
  engine.advance_and_filter();                // frontier {1, 2}
  engine.bisect(kInfiniteDistance);
  const auto result = engine.advance_and_filter();  // 1->2 improves again
  EXPECT_EQ(result.x3, 1u);
  EXPECT_EQ(engine.distance(2), 2u);
}

TEST(NearFarEngine, BisectSplitsByThreshold) {
  const CsrGraph g = diamond();
  NearFarEngine engine(g, 0);
  engine.advance_and_filter();  // dist: 1->5, 2->3
  const std::uint64_t x4 = engine.bisect(4);
  EXPECT_EQ(x4, 1u);  // only vertex 2 (dist 3) is near
  ASSERT_EQ(engine.spill().size(), 1u);
  EXPECT_EQ(engine.spill()[0], 1u);  // vertex 1 (dist 5) spilled
  EXPECT_EQ(engine.frontier()[0], 2u);
}

TEST(NearFarEngine, BisectInfiniteThresholdKeepsAll) {
  const CsrGraph g = diamond();
  NearFarEngine engine(g, 0);
  engine.advance_and_filter();
  EXPECT_EQ(engine.bisect(kInfiniteDistance), 2u);
  EXPECT_TRUE(engine.spill().empty());
}

TEST(NearFarEngine, DemoteMovesHighDistanceVertices) {
  const CsrGraph g = diamond();
  NearFarEngine engine(g, 0);
  engine.advance_and_filter();
  engine.bisect(kInfiniteDistance);  // frontier {1, 2}
  const std::uint64_t scanned = engine.demote(4);
  EXPECT_EQ(scanned, 2u);
  EXPECT_EQ(engine.frontier_size(), 1u);  // vertex 2 kept (dist 3)
  ASSERT_EQ(engine.spill().size(), 1u);
  EXPECT_EQ(engine.spill()[0], 1u);
}

TEST(NearFarEngine, InjectAppendsToFrontier) {
  const CsrGraph g = diamond();
  NearFarEngine engine(g, 0);
  engine.advance_and_filter();
  engine.bisect(4);  // frontier {2}
  const std::vector<VertexId> extra{1};
  engine.inject(extra);
  EXPECT_EQ(engine.frontier_size(), 2u);
}

TEST(NearFarEngine, ClearSpillResetsBuffer) {
  const CsrGraph g = diamond();
  NearFarEngine engine(g, 0);
  engine.advance_and_filter();
  engine.bisect(4);
  EXPECT_FALSE(engine.spill().empty());
  engine.clear_spill();
  EXPECT_TRUE(engine.spill().empty());
}

TEST(NearFarEngine, DemoteExcessSpillsSurplusByCount) {
  const CsrGraph g = diamond();
  NearFarEngine engine(g, 0);
  engine.advance_and_filter();
  engine.bisect(kInfiniteDistance);  // frontier {1, 2}
  EXPECT_EQ(engine.demote_excess(1), 1u);
  EXPECT_EQ(engine.frontier_size(), 1u);
  EXPECT_EQ(engine.spill().size(), 1u);
  // Max distance refreshed over the kept prefix.
  EXPECT_EQ(engine.frontier_max_distance(),
            engine.distance(engine.frontier()[0]));
  // No-op when already at or below the keep count.
  engine.clear_spill();
  EXPECT_EQ(engine.demote_excess(5), 0u);
  EXPECT_TRUE(engine.spill().empty());
}

TEST(NearFarEngine, RunToCompletionMatchesHandComputedDistances) {
  const CsrGraph g = diamond();
  NearFarEngine engine(g, 0);
  while (!engine.frontier_empty()) {
    engine.advance_and_filter();
    engine.bisect(kInfiniteDistance);  // Bellman-Ford-style: keep all
  }
  EXPECT_EQ(engine.distance(0), 0u);
  EXPECT_EQ(engine.distance(1), 5u);
  EXPECT_EQ(engine.distance(2), 3u);
  EXPECT_EQ(engine.distance(3), 5u);
  // Work-optimal here: each reachable non-source vertex improved once,
  // except vertex 2's... path 0->2 (3) is already best; 4 improvements:
  // 1:5, 2:3, 3:5(via 2); plus none redundant => 3 total? the engine
  // counts every successful relaxation:
  EXPECT_GE(engine.total_improving_relaxations(), 3u);
}

TEST(NearFarEngine, ReAdvancingImprovedVertexPropagates) {
  // Re-relaxation across a lowered threshold: 0 -10-> 1 -1-> 3,
  // 0 -1-> 2 -1-> 1. Vertex 1 improves from 10 to 2, and 3 from 11 to 3.
  const CsrGraph g = graph::build_csr(
      4, {{0, 1, 10}, {1, 3, 1}, {0, 2, 1}, {2, 1, 1}});
  NearFarEngine engine(g, 0);
  while (!engine.frontier_empty()) {
    engine.advance_and_filter();
    engine.bisect(kInfiniteDistance);
  }
  EXPECT_EQ(engine.distance(1), 2u);
  EXPECT_EQ(engine.distance(3), 3u);
}

// Memory-budget degrade (docs/ROBUSTNESS.md, "Resource budgets &
// exhaustion"): when res.engine.alloc refuses a high-water reserve, the
// engine skips it and lets the vector grow on demand. The sweep routes
// every updated vertex through the spill and back in through inject(),
// whose reserve grows with the frontier, so refusals really happen —
// and the distances and parents must equal the unarmed run's.
TEST(NearFarEngine, RefusedReservesKeepResultsIdentical) {
  const CsrGraph g = algo::testing::random_graph(3000, 6.0, 99, 5);
  const auto sweep = [&] {
    NearFarEngine engine(g, 0);
    std::vector<VertexId> refill;
    while (!engine.frontier_empty()) {
      engine.advance_and_filter();
      engine.bisect(0);  // everything spills
      refill.assign(engine.spill().begin(), engine.spill().end());
      engine.clear_spill();
      engine.inject(refill);
    }
    return std::pair(engine.distances(), engine.parents());
  };
  const auto reference = sweep();

  obs::Counter& skipped =
      obs::MetricsRegistry::global().counter("engine.reserve.skipped");
  skipped.reset();
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  fault::FailpointRegistry::global().arm("res.engine.alloc");
  const auto refused = sweep();
  fault::FailpointRegistry::global().disarm_all();
  obs::set_metrics_enabled(metrics_were_enabled);

  EXPECT_GT(skipped.value(), 0u);
  EXPECT_EQ(refused.first, reference.first);
  EXPECT_EQ(refused.second, reference.second);
}

}  // namespace
}  // namespace sssp::frontier
