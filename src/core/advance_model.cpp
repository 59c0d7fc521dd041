#include "core/advance_model.hpp"

namespace sssp::core {
namespace {

AdaptiveSgdOptions make_sgd_options(const AdvanceModel::Options& options) {
  AdaptiveSgdOptions sgd;
  sgd.initial_parameter = options.initial_degree;
  // Degrees live in [~0.1, ~10^5] on real graphs; clamp generously.
  sgd.min_parameter = 1e-3;
  sgd.max_parameter = 1e9;
  return sgd;
}

}  // namespace

AdvanceModel::AdvanceModel(const Options& options)
    : sgd_(make_sgd_options(options)) {}

}  // namespace sssp::core
