#include "core/adaptive_sgd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/rng.hpp"

namespace sssp::core {
namespace {

TEST(AdaptiveSgd, DefaultsMatchAlgorithmOneInit) {
  AdaptiveSgd sgd;
  EXPECT_DOUBLE_EQ(sgd.parameter(), 1.0);
  EXPECT_NEAR(sgd.tau(), 2.0, 1e-4);  // (1 + eps) * 2
  EXPECT_EQ(sgd.updates(), 0u);
}

TEST(AdaptiveSgd, ZeroInputIsNoOp) {
  AdaptiveSgd sgd;
  const double before = sgd.parameter();
  sgd.update(0.0, 100.0);
  EXPECT_DOUBLE_EQ(sgd.parameter(), before);
  EXPECT_EQ(sgd.updates(), 0u);
}

TEST(AdaptiveSgd, ConvergesOnNoiselessLinearData) {
  AdaptiveSgdOptions options;
  options.initial_parameter = 1.0;
  AdaptiveSgd sgd(options);
  const double true_theta = 7.5;
  for (int k = 0; k < 400; ++k) {
    const double x = 1.0 + (k % 13);
    sgd.update(x, true_theta * x);
  }
  EXPECT_NEAR(sgd.parameter(), true_theta, 0.05 * true_theta);
}

TEST(AdaptiveSgd, ConvergesUnderNoise) {
  AdaptiveSgdOptions options;
  options.initial_parameter = 0.5;
  AdaptiveSgd sgd(options);
  util::Xoshiro256 rng(99);
  const double true_theta = 3.0;
  for (int k = 0; k < 3000; ++k) {
    const double x = 1.0 + 9.0 * rng.next_double();
    const double noise = (rng.next_double() - 0.5) * 0.4 * x;
    sgd.update(x, true_theta * x + noise);
  }
  EXPECT_NEAR(sgd.parameter(), true_theta, 0.2 * true_theta);
}

TEST(AdaptiveSgd, TracksDriftingParameter) {
  // The paper's models must follow nonstationary targets (frontier
  // degree changes as the wavefront moves through the graph).
  AdaptiveSgd sgd;
  double theta = 2.0;
  for (int k = 0; k < 2000; ++k) {
    theta = 2.0 + (k / 500);  // steps at 500, 1000, 1500
    const double x = 1.0 + (k % 7);
    sgd.update(x, theta * x);
  }
  EXPECT_NEAR(sgd.parameter(), theta, 0.2 * theta);
}

TEST(AdaptiveSgd, StableUnderLargeMagnitudeInputs) {
  // Frontier sizes reach 1e6; gradients reach ~1e18. The adaptation must
  // neither overflow nor explode the parameter.
  AdaptiveSgd sgd;
  for (int k = 0; k < 100; ++k) {
    const double x = 1e6;
    sgd.update(x, 4.2 * x);
    ASSERT_TRUE(std::isfinite(sgd.parameter())) << k;
  }
  EXPECT_NEAR(sgd.parameter(), 4.2, 0.5);
}

TEST(AdaptiveSgd, RespectsParameterClamp) {
  AdaptiveSgdOptions options;
  options.initial_parameter = 1.0;
  options.min_parameter = 0.5;
  options.max_parameter = 2.0;
  AdaptiveSgd sgd(options);
  for (int k = 0; k < 200; ++k) sgd.update(1.0, 100.0);  // wants theta = 100
  EXPECT_DOUBLE_EQ(sgd.parameter(), 2.0);
  for (int k = 0; k < 200; ++k) sgd.update(1.0, 0.0);  // wants theta = 0
  EXPECT_DOUBLE_EQ(sgd.parameter(), 0.5);
}

TEST(AdaptiveSgd, TauNeverDropsBelowOne) {
  AdaptiveSgd sgd;
  for (int k = 0; k < 200; ++k) {
    sgd.update(1.0 + (k % 4), 3.0 * (1.0 + (k % 4)));
    ASSERT_GE(sgd.tau(), 1.0);
  }
}

TEST(AdaptiveSgd, RejectsBadOptions) {
  AdaptiveSgdOptions options;
  options.epsilon = 0.0;
  EXPECT_THROW(AdaptiveSgd{options}, std::invalid_argument);
  options = {};
  options.min_parameter = 5.0;
  options.max_parameter = 1.0;
  EXPECT_THROW(AdaptiveSgd{options}, std::invalid_argument);
}

TEST(AdaptiveSgd, PredictionUsesCurrentParameter) {
  AdaptiveSgd sgd;
  sgd.set_parameter(3.0);
  EXPECT_DOUBLE_EQ(sgd.prediction(4.0), 12.0);
}

TEST(AdaptiveSgd, RejectsNonFiniteObservations) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  AdaptiveSgd sgd;
  // Warm up on clean data so there is real state to protect.
  for (int k = 0; k < 50; ++k) sgd.update(1.0 + (k % 3), 2.0 * (1.0 + (k % 3)));
  const double theta = sgd.parameter();
  const double tau = sgd.tau();
  const std::uint64_t updates = sgd.updates();

  sgd.update(nan, 2.0);
  sgd.update(2.0, nan);
  sgd.update(inf, 2.0);
  sgd.update(2.0, -inf);
  sgd.update(nan, nan);

  EXPECT_EQ(sgd.rejected(), 5u);
  EXPECT_EQ(sgd.updates(), updates);  // rejected samples are not updates
  EXPECT_DOUBLE_EQ(sgd.parameter(), theta);
  EXPECT_DOUBLE_EQ(sgd.tau(), tau);
  EXPECT_TRUE(std::isfinite(sgd.parameter()));

  // Clean observations after the garbage keep converging.
  for (int k = 0; k < 50; ++k) sgd.update(1.0 + (k % 3), 2.0 * (1.0 + (k % 3)));
  EXPECT_NEAR(sgd.parameter(), 2.0, 0.2);
}

}  // namespace
}  // namespace sssp::core
