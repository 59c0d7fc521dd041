#include "core/bisect_model.hpp"

#include <algorithm>

namespace sssp::core {
namespace {

constexpr double kMinAlpha = 1e-6;

AdaptiveSgdOptions make_sgd_options() {
  AdaptiveSgdOptions sgd;  // alpha starts at the SGD default, 1
  // alpha is vertices-per-unit-distance: positive, potentially large on
  // dense distance ranges.
  sgd.min_parameter = kMinAlpha;
  sgd.max_parameter = 1e12;
  return sgd;
}

}  // namespace

BisectModel::BisectModel() : sgd_(make_sgd_options()) {}

double BisectModel::alpha(const BootstrapState& state) const {
  if (converged()) return std::max(kMinAlpha, sgd_.parameter());

  // Eq. 8 bootstrap.
  if (state.x4 >= state.x1_target && state.delta > 0.0)
    return std::max(kMinAlpha, state.x4 / state.delta);
  const double span = state.partition_bound - state.delta;
  if (span > 0.0 && state.partition_size > 0.0)
    return std::max(kMinAlpha, state.partition_size / span);
  // No usable state yet (e.g. empty far queue): fall back to the
  // current SGD value.
  return std::max(kMinAlpha, sgd_.parameter());
}

}  // namespace sssp::core
