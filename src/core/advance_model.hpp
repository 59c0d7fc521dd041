// ADVANCE-MODEL (paper Section 4.2): learns d in X2 ≈ d · X1, where d
// converges to the average out-degree of frontier vertices. Inverting
// the model gives the frontier size needed to hit the parallelism
// set-point (Eq. 3): X1_target = P / d.
#pragma once

#include "core/adaptive_sgd.hpp"

namespace sssp::core {

class AdvanceModel {
 public:
  struct Options {
    // Starting estimate of the frontier's average degree. Callers that
    // know the graph pass its mean degree; 1.0 is the paper's neutral
    // default.
    double initial_degree = 1.0;
  };

  AdvanceModel() : AdvanceModel(Options{}) {}
  explicit AdvanceModel(const Options& options);

  // Observe the true (X1, X2) of a completed advance stage.
  void observe(double x1, double x2) { sgd_.update(x1, x2); }

  // Current estimate of the average frontier degree d.
  double degree() const noexcept { return sgd_.parameter(); }

  // Predicted X2 for a hypothetical frontier of size x1.
  double predict_x2(double x1) const noexcept { return sgd_.prediction(x1); }

  // Eq. 3: the frontier size whose advance output meets set-point P.
  double target_frontier_size(double set_point) const noexcept {
    return set_point / degree();
  }

  std::uint64_t observations() const noexcept { return sgd_.updates(); }

  // Checkpoint/resume passthrough to the underlying SGD state (see
  // AdaptiveSgd::State). restore_sgd validates and throws on corrupt
  // fields.
  AdaptiveSgd::State sgd_state() const noexcept { return sgd_.state(); }
  void restore_sgd(const AdaptiveSgd::State& state) { sgd_.restore(state); }

 private:
  AdaptiveSgd sgd_;
};

}  // namespace sssp::core
