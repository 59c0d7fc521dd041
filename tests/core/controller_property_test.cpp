// Closed-loop property sweep: the controller driving a synthetic linear
// plant must converge to the set-point for a grid of plant parameters.
//
// Plant model (the idealized world Eqs. 1-6 assume):
//   X2_k = d_true * X1_k                      (advance)
//   X1_{k+1} = clamp(X4_k + alpha_true * delta_change, >= 1)
//   X4_k = X1_k (nothing spills in the synthetic plant)
// With these dynamics, X2 should settle at P, i.e. X1 at P / d_true.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/controller.hpp"

namespace sssp::core {
namespace {

using Case = std::tuple<double /*d_true*/, double /*alpha_true*/,
                        double /*set_point*/>;

class ControllerClosedLoop : public ::testing::TestWithParam<Case> {};

TEST_P(ControllerClosedLoop, AdaptiveConvergesToSetPoint) {
  const auto [d_true, alpha_true, set_point] = GetParam();

  ControllerConfig config;
  config.set_point = set_point;
  config.initial_delta = 10.0;
  config.deadband_ratio = 0.05;  // tight band for the convergence check
  DeltaController controller(config);

  double x1 = 1.0;
  double x2 = d_true * x1;
  double last_x2 = x2;
  for (int k = 0; k < 400; ++k) {
    controller.observe_advance(x1, x2);
    const double x4 = x1;
    const double before = controller.delta();
    // The synthetic far queue always has work (size 1e9) in a partition
    // spanning [delta, delta + 1000].
    const double after =
        controller.plan_delta(x4, 1e9, 1e6, controller.delta() + 1000.0);
    const double delta_change = after - before;
    x1 = std::max(1.0, x4 + alpha_true * delta_change);
    x2 = d_true * x1;
    last_x2 = x2;
  }
  // Settles within 20% of the set-point (deadband + model noise).
  EXPECT_NEAR(last_x2, set_point, 0.2 * set_point)
      << "d=" << d_true << " alpha=" << alpha_true << " P=" << set_point;
  // And the models learned the plant.
  EXPECT_NEAR(controller.advance_model().degree(), d_true, 0.25 * d_true);
}

INSTANTIATE_TEST_SUITE_P(
    PlantGrid, ControllerClosedLoop,
    ::testing::Combine(::testing::Values(1.5, 4.0, 12.0, 50.0),
                       ::testing::Values(0.5, 5.0, 80.0),
                       ::testing::Values(1000.0, 50000.0)),
    [](const ::testing::TestParamInfo<Case>& tpi) {
      return std::string("d")
          .append(std::to_string(static_cast<int>(std::get<0>(tpi.param) * 10)))
          .append("_a")
          .append(std::to_string(static_cast<int>(std::get<1>(tpi.param) * 10)))
          .append("_P")
          .append(std::to_string(static_cast<long>(std::get<2>(tpi.param))));
    });

TEST(ControllerClosedLoop, RecoversFromPlantShift) {
  // Nonstationary plant: the frontier degree shifts mid-run (hub region
  // to periphery), as on a real scale-free graph.
  ControllerConfig config;
  config.set_point = 10000.0;
  config.initial_delta = 10.0;
  DeltaController controller(config);

  double d_true = 20.0;
  const double alpha_true = 10.0;
  double x1 = 1.0;
  double x2 = d_true * x1;
  for (int k = 0; k < 600; ++k) {
    if (k == 300) d_true = 3.0;  // the shift
    controller.observe_advance(x1, x2);
    const double before = controller.delta();
    const double after =
        controller.plan_delta(x1, 1e9, 1e6, controller.delta() + 1000.0);
    x1 = std::max(1.0, x1 + alpha_true * (after - before));
    x2 = d_true * x1;
  }
  EXPECT_NEAR(x2, 10000.0, 3000.0);
  EXPECT_NEAR(controller.advance_model().degree(), 3.0, 1.0);
}

}  // namespace
}  // namespace sssp::core
