#include "core/self_tuning.hpp"

#include <gtest/gtest.h>

#include "graph/datasets.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/near_far.hpp"
#include "tests/sssp/test_graphs.hpp"
#include "util/rng.hpp"

namespace sssp::core {
namespace {

using algo::count_distance_mismatches;
using algo::dijkstra_distances;
using algo::testing::diamond;
using algo::testing::random_graph;
using algo::testing::ring;

TEST(SelfTuning, RejectsMissingSetPoint) {
  const auto g = diamond();
  EXPECT_THROW(self_tuning_sssp(g, 0, SelfTuningOptions{}),
               std::invalid_argument);
}

TEST(SelfTuning, DiamondDistancesExact) {
  const auto g = diamond();
  SelfTuningOptions options;
  options.set_point = 100.0;
  const auto r = self_tuning_sssp(g, 0, options);
  EXPECT_EQ(r.distances, dijkstra_distances(g, 0));
  EXPECT_EQ(r.algorithm, "self-tuning");
}

TEST(SelfTuning, RingExact) {
  const auto g = ring(200);
  SelfTuningOptions options;
  options.set_point = 10.0;
  const auto r = self_tuning_sssp(g, 0, options);
  EXPECT_EQ(count_distance_mismatches(r.distances, dijkstra_distances(g, 0)),
            0u);
}

TEST(SelfTuning, ControllerTimeMeasuredWhenEnabled) {
  const auto g = random_graph(2000, 5.0, 99, 8);
  SelfTuningOptions options;
  options.set_point = 500.0;
  options.measure_controller_time = true;
  const auto r = self_tuning_sssp(g, 0, options);
  EXPECT_GT(r.controller_seconds, 0.0);
  options.measure_controller_time = false;
  const auto r2 = self_tuning_sssp(g, 0, options);
  EXPECT_DOUBLE_EQ(r2.controller_seconds, 0.0);
}

TEST(SelfTuning, DeterministicWorkloadWithoutTimeMeasurement) {
  const auto g = random_graph(1500, 4.0, 99, 77);
  SelfTuningOptions options;
  options.set_point = 800.0;
  options.measure_controller_time = false;
  const auto a = self_tuning_sssp(g, 3, options);
  const auto b = self_tuning_sssp(g, 3, options);
  ASSERT_EQ(a.num_iterations(), b.num_iterations());
  for (std::size_t i = 0; i < a.num_iterations(); ++i) {
    EXPECT_EQ(a.iterations[i].x1, b.iterations[i].x1) << i;
    EXPECT_EQ(a.iterations[i].x2, b.iterations[i].x2) << i;
    EXPECT_EQ(a.iterations[i].x4, b.iterations[i].x4) << i;
    EXPECT_DOUBLE_EQ(a.iterations[i].delta, b.iterations[i].delta) << i;
  }
}

TEST(SelfTuning, HigherSetPointRaisesAverageParallelism) {
  const auto g = random_graph(8000, 6.0, 99, 12);
  SelfTuningOptions low;
  low.set_point = 200.0;
  low.measure_controller_time = false;
  SelfTuningOptions high = low;
  high.set_point = 20000.0;
  const auto r_low = self_tuning_sssp(g, 0, low);
  const auto r_high = self_tuning_sssp(g, 0, high);
  EXPECT_GT(r_high.average_parallelism(), r_low.average_parallelism());
}

TEST(SelfTuning, ParallelismConcentratesNearSetPoint) {
  // The paper's Figure 5 claim (measured on Cal, as in the paper):
  // median X2 lands near P with modest spread after the convergence
  // phase. The graph must be large enough that its wavefront can
  // sustain the set-point.
  const auto g =
      graph::make_dataset(graph::Dataset::kCal, {.scale = 1.0 / 16.0});
  const double P = 10000.0;
  SelfTuningOptions options;
  options.set_point = P;
  options.measure_controller_time = false;
  const auto src = graph::default_source(graph::Dataset::kCal, g);
  const auto r = self_tuning_sssp(g, src, options);

  // Median over the steady phase (skip the first 25% of iterations).
  std::vector<double> steady;
  for (std::size_t i = r.num_iterations() / 4; i < r.num_iterations(); ++i)
    steady.push_back(static_cast<double>(r.iterations[i].x2));
  ASSERT_GE(steady.size(), 8u);
  std::sort(steady.begin(), steady.end());
  const double median = steady[steady.size() / 2];
  EXPECT_GT(median, 0.4 * P);
  EXPECT_LT(median, 2.5 * P);
}

TEST(SelfTuning, LowerVariabilityThanTimeMinimizingBaselineTail) {
  // Figure 1's qualitative claim: the controller narrows the dynamic
  // range of parallelism relative to peak. Compare peak/median ratios.
  const auto g =
      graph::make_dataset(graph::Dataset::kWiki, {.scale = 1.0 / 64.0});
  const auto src = graph::default_source(graph::Dataset::kWiki, g);

  // Static delta chosen so the baseline's *average* parallelism is
  // comparable to the controller's set-point — the fair Fig. 1 contrast:
  // same typical level, very different burst behaviour.
  const auto baseline = algo::near_far(g, src, {.delta = 8});
  SelfTuningOptions options;
  options.set_point = 20000.0;
  options.measure_controller_time = false;
  const auto tuned = self_tuning_sssp(g, src, options);

  // Burst factor: how far the largest iteration towers over the run's
  // average parallelism. Fig. 1's tightened band means the controller's
  // bursts are small relative to its (higher) typical level.
  auto peak_over_mean = [](const algo::SsspResult& r) {
    double peak = 0.0;
    for (const auto& it : r.iterations)
      peak = std::max(peak, static_cast<double>(it.x2));
    return peak / std::max(1.0, r.average_parallelism());
  };
  EXPECT_LT(peak_over_mean(tuned), peak_over_mean(baseline));
  // And the controller raises the typical level of parallelism.
  EXPECT_GT(tuned.average_parallelism(), baseline.average_parallelism());
}

TEST(SelfTuning, RecordsModelEstimates) {
  // On a ring every frontier vertex has out-degree exactly 1, so the
  // ADVANCE-MODEL's d must converge to 1 and is recorded per iteration.
  const auto g = ring(2000);
  SelfTuningOptions options;
  options.set_point = 50.0;
  const auto r = self_tuning_sssp(g, 0, options);
  ASSERT_GT(r.num_iterations(), 10u);
  for (const auto& it : r.iterations) {
    EXPECT_GT(it.degree_estimate, 0.0);
    EXPECT_GT(it.alpha_estimate, 0.0);
  }
  EXPECT_NEAR(r.iterations.back().degree_estimate, 1.0, 0.2);
}

TEST(SelfTuning, MaxIterationsCap) {
  const auto g = ring(5000);
  SelfTuningOptions options;
  options.set_point = 1.0;
  options.max_iterations = 25;
  const auto r = self_tuning_sssp(g, 0, options);
  EXPECT_EQ(r.num_iterations(), 25u);
}

TEST(SelfTuning, ZeroWeightEdgesExact) {
  std::vector<graph::Edge> edges;
  util::Xoshiro256 rng(123);
  for (int i = 0; i < 2000; ++i) {
    edges.push_back({static_cast<graph::VertexId>(rng.next_below(400)),
                     static_cast<graph::VertexId>(rng.next_below(400)),
                     static_cast<graph::Weight>(rng.next_below(5))});  // 0-4
  }
  const auto g = graph::build_csr(400, std::move(edges));
  SelfTuningOptions options;
  options.set_point = 300.0;
  const auto r = self_tuning_sssp(g, 0, options);
  EXPECT_EQ(count_distance_mismatches(r.distances, dijkstra_distances(g, 0)),
            0u);
}

TEST(SelfTuning, UnreachableVerticesStayInfinite) {
  const auto g = graph::build_csr(6, {{0, 1, 3}, {1, 2, 4}});
  SelfTuningOptions options;
  options.set_point = 50.0;
  const auto r = self_tuning_sssp(g, 0, options);
  EXPECT_EQ(r.reached_count(), 3u);
  EXPECT_EQ(r.distances[5], graph::kInfiniteDistance);
}

TEST(SelfTuning, AblationsStillExact) {
  const auto g = random_graph(1200, 4.0, 99, 31);
  const auto expected = dijkstra_distances(g, 0);
  for (const bool adaptive : {true, false}) {
    for (const bool down : {true, false}) {
      for (const bool bounds : {true, false}) {
        SelfTuningOptions options;
        options.set_point = 1000.0;
        options.adaptive_learning_rate = adaptive;
        options.rebalance_down = down;
        options.partition_boundaries = bounds;
        const auto r = self_tuning_sssp(g, 0, options);
        EXPECT_EQ(count_distance_mismatches(r.distances, expected), 0u)
            << "adaptive=" << adaptive << " down=" << down
            << " bounds=" << bounds;
      }
    }
  }
}

// Exactness property sweep: arbitrary set-points must never break
// correctness (the controller only shifts work, never skips it).
struct TuningCase {
  std::uint64_t seed;
  double set_point;
};

class SelfTuningProperty : public ::testing::TestWithParam<TuningCase> {};

TEST_P(SelfTuningProperty, MatchesDijkstra) {
  const auto [seed, set_point] = GetParam();
  const auto g = random_graph(900, 5.0, 99, seed);
  const auto src = static_cast<graph::VertexId>((seed * 37) % 900);
  SelfTuningOptions options;
  options.set_point = set_point;
  const auto r = self_tuning_sssp(g, src, options);
  EXPECT_EQ(
      count_distance_mismatches(r.distances, dijkstra_distances(g, src)), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SelfTuningProperty,
    ::testing::Values(TuningCase{1, 1.0}, TuningCase{1, 100.0},
                      TuningCase{1, 10000.0}, TuningCase{1, 1e7},
                      TuningCase{2, 50.0}, TuningCase{2, 5000.0},
                      TuningCase{3, 333.0}, TuningCase{4, 2.0},
                      TuningCase{5, 1e6}, TuningCase{6, 777.0}),
    [](const ::testing::TestParamInfo<TuningCase>& tpi) {
      return "seed" + std::to_string(tpi.param.seed) + "_P" +
             std::to_string(static_cast<long long>(tpi.param.set_point));
    });

}  // namespace
}  // namespace sssp::core
