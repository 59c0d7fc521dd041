#include "core/tunable_pagerank.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "graph/datasets.hpp"
#include "tests/sssp/test_graphs.hpp"

namespace sssp::core {
namespace {

using algo::testing::random_graph;
using algo::testing::ring;

double l1_difference(const std::vector<double>& a,
                     const std::vector<double>& b) {
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) total += std::abs(a[i] - b[i]);
  return total;
}

TEST(TunablePageRank, RejectsBadOptions) {
  const auto g = ring(4);
  TunablePageRankOptions options;
  options.damping = 1.5;
  EXPECT_THROW(tunable_pagerank(g, options), std::invalid_argument);
  options = {};
  options.tolerance = 0.0;
  EXPECT_THROW(tunable_pagerank(g, options), std::invalid_argument);
  options = {};
  options.gain = 0.0;
  EXPECT_THROW(tunable_pagerank(g, options), std::invalid_argument);
}

TEST(TunablePageRank, EmptyGraph) {
  const graph::CsrGraph g(std::vector<graph::EdgeIndex>{0}, {}, {});
  const auto result = tunable_pagerank(g, {});
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(result.ranks.empty());
}

TEST(TunablePageRank, UniformOnRing) {
  // Perfect symmetry: every vertex must get rank 1/n.
  const auto g = ring(100);
  TunablePageRankOptions options;
  options.tolerance = 1e-10;
  const auto result = tunable_pagerank(g, options);
  ASSERT_TRUE(result.converged);
  for (const double rank : result.ranks) EXPECT_NEAR(rank, 0.01, 1e-6);
}

TEST(TunablePageRank, MatchesPowerIteration) {
  const auto g = random_graph(500, 6.0, 9, 71);
  TunablePageRankOptions options;
  options.tolerance = 1e-9;
  const auto push = tunable_pagerank(g, options);
  ASSERT_TRUE(push.converged);
  const auto power = pagerank_power_iteration(g, options.damping, 200);
  EXPECT_LT(l1_difference(push.ranks, power), 1e-5);
}

TEST(TunablePageRank, SetPointDoesNotChangeRanks) {
  const auto g = random_graph(400, 5.0, 9, 72);
  TunablePageRankOptions base;
  base.tolerance = 1e-8;
  const auto unconstrained = tunable_pagerank(g, base);
  for (const double p : {100.0, 2000.0}) {
    TunablePageRankOptions controlled = base;
    controlled.set_point = p;
    const auto result = tunable_pagerank(g, controlled);
    ASSERT_TRUE(result.converged) << p;
    EXPECT_LT(l1_difference(result.ranks, unconstrained.ranks), 1e-5) << p;
  }
}

TEST(TunablePageRank, ControllerLimitsPerIterationWork) {
  const auto g =
      graph::make_dataset(graph::Dataset::kWiki, {.scale = 1.0 / 256.0});
  TunablePageRankOptions controlled;
  controlled.tolerance = 1e-7;
  controlled.set_point = 5000.0;
  const auto result = tunable_pagerank(g, controlled);
  ASSERT_TRUE(result.converged);
  // After the first iteration (everything starts active), per-iteration
  // edge work should be throttled to the set-point's order.
  std::uint64_t peak_after_start = 0;
  for (std::size_t i = 1; i < result.iterations.size(); ++i)
    peak_after_start = std::max(peak_after_start, result.iterations[i].x2);
  EXPECT_LT(static_cast<double>(peak_after_start), 20.0 * controlled.set_point);
  // And the unconstrained run has strictly larger bursts.
  TunablePageRankOptions unconstrained = controlled;
  unconstrained.set_point = 0.0;
  const auto wild = tunable_pagerank(g, unconstrained);
  std::uint64_t wild_peak = 0;
  for (std::size_t i = 1; i < wild.iterations.size(); ++i)
    wild_peak = std::max(wild_peak, wild.iterations[i].x2);
  EXPECT_GT(wild_peak, peak_after_start);
}

TEST(TunablePageRank, RanksSumBelowOneWithDanglingMassDropped) {
  // 0 -> 1, 1 dangling: mass pushed into 1 stays there; totals stay in
  // (0, 1]. (Exact sum depends on dropped dangling teleport mass.)
  const auto g = graph::build_csr(2, {{0, 1, 1}});
  TunablePageRankOptions options;
  options.tolerance = 1e-10;
  const auto result = tunable_pagerank(g, options);
  const double sum =
      std::accumulate(result.ranks.begin(), result.ranks.end(), 0.0);
  EXPECT_GT(sum, 0.1);
  EXPECT_LE(sum, 1.0 + 1e-9);
  EXPECT_GT(result.ranks[1], result.ranks[0]);  // 1 receives 0's push
}

}  // namespace
}  // namespace sssp::core
