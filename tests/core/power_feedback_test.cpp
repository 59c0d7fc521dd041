#include "core/power_feedback.hpp"

#include <gtest/gtest.h>

#include "core/self_tuning.hpp"
#include "graph/datasets.hpp"
#include "sssp/dijkstra.hpp"
#include "tests/sssp/test_graphs.hpp"

namespace sssp::core {
namespace {

using algo::count_distance_mismatches;
using algo::dijkstra_distances;

class PowerFeedbackTest : public ::testing::Test {
 protected:
  graph::CsrGraph graph_ =
      graph::make_dataset(graph::Dataset::kCal, {.scale = 1.0 / 32.0});
  graph::VertexId source_ =
      graph::default_source(graph::Dataset::kCal, graph_);
  sim::DeviceSpec device_ = sim::DeviceSpec::jetson_tk1();
  sim::DefaultGovernor governor_;
};

TEST_F(PowerFeedbackTest, RejectsBadOptions) {
  PowerFeedbackOptions options;  // budget = 0
  EXPECT_THROW(
      power_feedback_sssp(graph_, source_, device_, governor_, options),
      std::invalid_argument);
  options.power_budget_w = 5.0;
  options.gain = 0.0;
  EXPECT_THROW(
      power_feedback_sssp(graph_, source_, device_, governor_, options),
      std::invalid_argument);
  options.gain = 0.5;
  options.min_set_point = 100.0;
  options.max_set_point = 10.0;
  EXPECT_THROW(
      power_feedback_sssp(graph_, source_, device_, governor_, options),
      std::invalid_argument);
}

TEST_F(PowerFeedbackTest, DistancesExactUnderAnyBudget) {
  for (const double budget : {4.0, 6.0, 20.0}) {
    PowerFeedbackOptions options;
    options.power_budget_w = budget;
    const auto result =
        power_feedback_sssp(graph_, source_, device_, governor_, options);
    EXPECT_EQ(count_distance_mismatches(result.sssp.distances,
                                        dijkstra_distances(graph_, source_)),
              0u)
        << "budget " << budget;
  }
}

TEST_F(PowerFeedbackTest, TracesHaveOneEntryPerIteration) {
  PowerFeedbackOptions options;
  options.power_budget_w = 6.0;
  const auto result =
      power_feedback_sssp(graph_, source_, device_, governor_, options);
  EXPECT_EQ(result.set_point_trace.size(), result.sssp.num_iterations());
  EXPECT_EQ(result.power_trace_w.size(), result.sssp.num_iterations());
  EXPECT_GT(result.report.total_seconds, 0.0);
}

// The loop's per-iteration reading is the replay's own per-iteration
// power: both time an iteration with sim::time_iteration, and the
// governor walks the same frequencies in both.
TEST_F(PowerFeedbackTest, FeedbackWattsMatchReplayPerIteration) {
  PowerFeedbackOptions options;
  options.power_budget_w = 6.0;
  const auto result =
      power_feedback_sssp(graph_, source_, device_, governor_, options);
  const sim::RunReport replay = sim::simulate_run(
      device_, governor_, result.sssp.to_workload("power-feedback"));
  ASSERT_EQ(replay.iterations.size(), result.power_trace_w.size());
  ASSERT_FALSE(replay.iterations.empty());
  for (std::size_t i = 0; i < replay.iterations.size(); ++i)
    EXPECT_EQ(result.power_trace_w[i], replay.iterations[i].average_power_w)
        << "iteration " << i;
}

TEST_F(PowerFeedbackTest, TightBudgetLowersPowerVersusLooseBudget) {
  PowerFeedbackOptions tight;
  tight.power_budget_w = 4.4;  // just above idle
  PowerFeedbackOptions loose = tight;
  loose.power_budget_w = 50.0;  // effectively unconstrained
  const auto r_tight =
      power_feedback_sssp(graph_, source_, device_, governor_, tight);
  const auto r_loose =
      power_feedback_sssp(graph_, source_, device_, governor_, loose);
  EXPECT_LT(r_tight.report.average_power_w, r_loose.report.average_power_w);
  // The loose run exploits the headroom with a larger final set-point.
  EXPECT_GT(r_loose.set_point_trace.back(), r_tight.set_point_trace.back());
}

TEST_F(PowerFeedbackTest, GenerousBudgetIsMostlyCompliant) {
  PowerFeedbackOptions options;
  options.power_budget_w = 100.0;
  const auto result =
      power_feedback_sssp(graph_, source_, device_, governor_, options);
  EXPECT_GT(result.compliant_fraction, 0.95);
}

TEST_F(PowerFeedbackTest, SetPointStaysWithinBounds) {
  PowerFeedbackOptions options;
  options.power_budget_w = 100.0;  // pushes P up hard
  options.min_set_point = 128.0;
  options.max_set_point = 2048.0;
  const auto result =
      power_feedback_sssp(graph_, source_, device_, governor_, options);
  for (const double p : result.set_point_trace) {
    EXPECT_GE(p, 128.0);
    EXPECT_LE(p, 2048.0);
  }
  EXPECT_DOUBLE_EQ(result.set_point_trace.back(), 2048.0);  // saturates
}

TEST(SelfTuningRun, StepperMatchesFreeFunction) {
  const auto g = algo::testing::random_graph(1200, 5.0, 99, 9);
  SelfTuningOptions options;
  options.set_point = 2000.0;
  options.measure_controller_time = false;

  const auto direct = self_tuning_sssp(g, 0, options);

  SelfTuningRun run(g, 0, options);
  std::size_t steps = 0;
  while (run.step()) ++steps;
  const auto stepped = run.take_result();

  EXPECT_EQ(steps, direct.num_iterations());
  ASSERT_EQ(stepped.num_iterations(), direct.num_iterations());
  for (std::size_t i = 0; i < direct.num_iterations(); ++i) {
    EXPECT_EQ(stepped.iterations[i].x2, direct.iterations[i].x2) << i;
    EXPECT_DOUBLE_EQ(stepped.iterations[i].delta, direct.iterations[i].delta)
        << i;
  }
  EXPECT_EQ(stepped.distances, direct.distances);
}

TEST(SelfTuningRun, LastIterationBeforeStepThrows) {
  const auto g = algo::testing::ring(10);
  SelfTuningOptions options;
  options.set_point = 5.0;
  SelfTuningRun run(g, 0, options);
  EXPECT_THROW(run.last_iteration(), std::logic_error);
  ASSERT_TRUE(run.step());
  EXPECT_NO_THROW(run.last_iteration());
}

TEST(SelfTuningRun, SetSetPointRetargetsController) {
  const auto g = algo::testing::random_graph(2000, 6.0, 99, 21);
  SelfTuningOptions options;
  options.set_point = 100.0;
  SelfTuningRun run(g, 0, options);
  for (int i = 0; i < 3 && !run.done(); ++i) run.step();
  run.set_set_point(50000.0);
  EXPECT_DOUBLE_EQ(run.set_point(), 50000.0);
  EXPECT_THROW(run.set_set_point(0.0), std::invalid_argument);
  while (run.step()) {
  }
  const auto result = run.take_result();
  EXPECT_EQ(algo::count_distance_mismatches(
                result.distances, algo::dijkstra_distances(g, 0)),
            0u);
}

TEST(SelfTuningRun, DoneReflectsCompletion) {
  const auto g = algo::testing::ring(6);
  SelfTuningOptions options;
  options.set_point = 10.0;
  SelfTuningRun run(g, 0, options);
  EXPECT_FALSE(run.done());
  while (run.step()) {
  }
  EXPECT_TRUE(run.done());
  EXPECT_FALSE(run.step());
}

}  // namespace
}  // namespace sssp::core
