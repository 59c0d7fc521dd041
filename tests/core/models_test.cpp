#include <gtest/gtest.h>

#include "core/advance_model.hpp"
#include "core/bisect_model.hpp"
#include "util/rng.hpp"

namespace sssp::core {
namespace {

TEST(AdvanceModel, LearnsAverageDegree) {
  AdvanceModel model;
  // Frontier degree ~ 6: X2 = 6 X1.
  for (int k = 0; k < 300; ++k) {
    const double x1 = 10.0 + (k % 50);
    model.observe(x1, 6.0 * x1);
  }
  EXPECT_NEAR(model.degree(), 6.0, 0.5);
  EXPECT_EQ(model.observations(), 300u);
}

TEST(AdvanceModel, TargetFrontierIsEqThree) {
  AdvanceModel model;
  for (int k = 0; k < 300; ++k) model.observe(100.0 + k % 10, 4.0 * (100.0 + k % 10));
  // X1_target = P / d.
  EXPECT_NEAR(model.target_frontier_size(20000.0), 20000.0 / model.degree(),
              1e-9);
  EXPECT_NEAR(model.target_frontier_size(20000.0), 5000.0, 500.0);
}

TEST(AdvanceModel, SeededWithGraphDegree) {
  AdvanceModel model(AdvanceModel::Options{.initial_degree = 12.0});
  EXPECT_DOUBLE_EQ(model.degree(), 12.0);
  EXPECT_DOUBLE_EQ(model.predict_x2(10.0), 120.0);
}

TEST(AdvanceModel, DegreeStaysPositiveUnderPerverseData) {
  AdvanceModel model;
  for (int k = 0; k < 100; ++k) model.observe(1000.0, 0.0);
  EXPECT_GT(model.degree(), 0.0);
}

TEST(BisectModel, BootstrapUsesX4OverDeltaWhenOversized) {
  BisectModel model;  // unconverged: 0 observations
  BisectModel::BootstrapState state;
  state.x4 = 5000.0;
  state.x1_target = 1000.0;  // X4 >= target
  state.delta = 250.0;
  EXPECT_FALSE(model.converged());
  EXPECT_DOUBLE_EQ(model.alpha(state), 5000.0 / 250.0);
}

TEST(BisectModel, BootstrapUsesPartitionDensityWhenUndersized) {
  BisectModel model;
  BisectModel::BootstrapState state;
  state.x4 = 100.0;
  state.x1_target = 1000.0;  // X4 < target
  state.delta = 250.0;
  state.partition_size = 900.0;
  state.partition_bound = 550.0;
  // S_i / (B_i - delta) = 900 / 300 = 3.
  EXPECT_DOUBLE_EQ(model.alpha(state), 3.0);
}

TEST(BisectModel, BootstrapFallsBackWhenNoPartitionState) {
  BisectModel model;
  BisectModel::BootstrapState state;  // all zeros
  // The learned alpha, still at its starting value.
  EXPECT_DOUBLE_EQ(model.alpha(state), 1.0);
}

TEST(BisectModel, ConvergesAfterConfiguredObservations) {
  static_assert(BisectModel::kBootstrapObservations == 5);
  BisectModel model;
  for (int k = 0; k < 4; ++k) model.observe(10.0, 100.0, 100.0 + 30.0 * 10.0);
  EXPECT_FALSE(model.converged());
  model.observe(10.0, 100.0, 100.0 + 30.0 * 10.0);
  EXPECT_TRUE(model.converged());
}

TEST(BisectModel, LearnsVerticesPerUnitDistance) {
  BisectModel model;
  // True alpha = 30: X1' - X4 = 30 * delta_change.
  util::Xoshiro256 rng(5);
  for (int k = 0; k < 500; ++k) {
    const double dd = (rng.next_double() - 0.3) * 20.0;
    model.observe(dd, 1000.0, 1000.0 + 30.0 * dd);
  }
  EXPECT_TRUE(model.converged());
  BisectModel::BootstrapState unused;
  EXPECT_NEAR(model.alpha(unused), 30.0, 5.0);
}

TEST(BisectModel, ZeroDeltaChangeCarriesNoInformation) {
  BisectModel model;
  for (int k = 0; k < 100; ++k) model.observe(0.0, 50.0, 5000.0);
  EXPECT_EQ(model.observations(), 0u);
  EXPECT_FALSE(model.converged());
}

TEST(BisectModel, AlphaAlwaysPositive) {
  BisectModel model;
  // Adversarial: negative correlation between delta change and growth.
  for (int k = 0; k < 200; ++k) model.observe(10.0, 1000.0, 0.0);
  BisectModel::BootstrapState state;
  EXPECT_GT(model.alpha(state), 0.0);
}

}  // namespace
}  // namespace sssp::core
