// BISECT-MODEL (paper Sections 4.4-4.6): learns alpha in
//   X1_{k+1} ≈ X4_k + alpha · (delta_{k+1} - delta_k),
// i.e. alpha estimates how many postponed vertices live per unit of
// distance near the current threshold. Before the SGD estimate
// converges (the paper reports ~5 iterations), alpha is bootstrapped
// from the current state via Eq. 8:
//   alpha = X4 / delta                 if X4 >= X1_target
//         = S_i / (B_i - delta)        otherwise
// where S_i and B_i are the size and upper bound of the current far
// partition.
#pragma once

#include <cstdint>

#include "core/adaptive_sgd.hpp"

namespace sssp::core {

class BisectModel {
 public:
  // Number of SGD observations after which the learned alpha replaces
  // the Eq. 8 bootstrap (paper: "converged ... after about 5").
  static constexpr std::uint64_t kBootstrapObservations = 5;

  BisectModel();

  // Observe the outcome of a delta change: the frontier size X1 of the
  // next iteration versus the pre-rebalance size X4 and the applied
  // delta change. delta_change == 0 carries no information (no-op).
  void observe(double delta_change, double x4, double x1_next) {
    sgd_.update(delta_change, x1_next - x4);
  }

  bool converged() const noexcept {
    return sgd_.updates() >= kBootstrapObservations;
  }

  // Inputs Eq. 8 needs when still bootstrapping.
  struct BootstrapState {
    double x4 = 0.0;
    double x1_target = 0.0;       // P / d from the ADVANCE-MODEL
    double delta = 0.0;           // current threshold
    double partition_size = 0.0;  // S_i of the current far partition
    double partition_bound = 0.0; // B_i of the current far partition
  };

  // alpha to use right now: the learned parameter once converged, the
  // Eq. 8 bootstrap before that. Always positive.
  double alpha(const BootstrapState& state) const;

  // The learned (SGD) alpha regardless of convergence.
  double learned_alpha() const noexcept { return sgd_.parameter(); }
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
