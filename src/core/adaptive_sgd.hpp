// Algorithm 1 of the paper: stochastic gradient descent with the
// adaptive learning rate of Schaul, Zhang & LeCun ("No More Pesky
// Learning Rates" [30]), specialized to scalar linear-through-origin
// models y ≈ theta * x.
//
// Per observation (x, y):
//   grad   = -2 (y - theta x) x            (first derivative)
//   grad2  =  2 x^2                        (second derivative)
//   g <- (1 - 1/tau) g + (1/tau) grad      (EMA of gradient)
//   v <- (1 - 1/tau) v + (1/tau) grad^2    (EMA of uncentered variance)
//   h <- (1 - 1/tau) h + (1/tau) grad2     (EMA of curvature)
//   mu  <- g^2 / (h v)                     (adaptive learning rate)
//   tau <- (1 - g^2 / v) tau + 1           (adaptive memory)
//   theta <- theta - mu grad
//
// Both the ADVANCE-MODEL (theta = d, x = X1, y = X2) and the
// BISECT-MODEL (theta = alpha, x = delta-change, y = frontier-size
// change) instantiate this class.
#pragma once

#include <cstdint>

namespace sssp::core {

struct AdaptiveSgdOptions {
  double initial_parameter = 1.0;
  // Initialization constants from Algorithm 1 (epsilon guards the
  // variance EMA against division by zero before the first update).
  double epsilon = 1e-6;
  // Parameter clamp after each update; models in this codebase are
  // physically positive quantities (average degree, vertices/distance).
  double min_parameter = 1e-9;
  double max_parameter = 1e18;
};

class AdaptiveSgd {
 public:
  explicit AdaptiveSgd(const AdaptiveSgdOptions& options);
  AdaptiveSgd() : AdaptiveSgd(AdaptiveSgdOptions{}) {}

  // One SGD step on observation (x, y) for the model y ≈ theta x.
  // Returns the updated parameter. x == 0 carries no gradient and is a
  // no-op (the model is unidentifiable from it). Non-finite (NaN/Inf)
  // observations are rejected — theta and the EMA state are untouched —
  // and counted in rejected() and the obs registry
  // ("sgd.rejected_observations"): one poisoned sample must not corrupt
  // the model for the rest of the run.
  double update(double x, double y);

  // Complete serializable SGD state (checkpoint/resume). Fields mirror
  // the private members one-for-one: restoring a captured state makes
  // every subsequent update() bit-identical to the uninterrupted model.
  struct State {
    double theta = 1.0;
    double g_bar = 0.0;
    double v_bar = 0.0;
    double h_bar = 1.0;
    double tau = 2.0;
    double mu = 0.0;
    std::uint64_t updates = 0;
    std::uint64_t rejected = 0;

    friend bool operator==(const State&, const State&) = default;
  };
  State state() const noexcept;
  // Validated restore: non-finite or out-of-range fields go through the
  // same input firewall as update() — counted in rejected() and the
  // "sgd.rejected_observations" counter — and throw
  // std::invalid_argument. A corrupt checkpoint must never seed a model.
  void restore(const State& state);

  double parameter() const noexcept { return theta_; }
  void set_parameter(double theta) noexcept;
  double prediction(double x) const noexcept { return theta_ * x; }
  // Diagnostics (exposed for tests and tracing).
  double learning_rate() const noexcept { return mu_; }
  double tau() const noexcept { return tau_; }
  std::uint64_t updates() const noexcept { return updates_; }
  // Observations dropped by the non-finite input guard.
  std::uint64_t rejected() const noexcept { return rejected_; }

 private:
  AdaptiveSgdOptions options_;
  double theta_;
  double g_bar_ = 0.0;   // EMA of gradient
  double v_bar_;         // EMA of squared gradient
  double h_bar_ = 1.0;   // EMA of curvature
  double tau_;           // adaptive EMA time constant
  double mu_ = 0.0;      // last learning rate used
  std::uint64_t updates_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace sssp::core
