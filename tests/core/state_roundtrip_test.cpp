// Satellite of the checkpoint/resume work (docs/ROBUSTNESS.md,
// "Checkpoint & recovery"): every serializable component state must
// (a) round-trip exactly — save, load into a fresh object, save again,
// compare equal — with the restored object bit-reproducing the
// original's subsequent behaviour, and (b) reject corrupt states
// (non-finite, out-of-range) through the existing input firewalls,
// bumping the same counters a poisoned live observation would.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/adaptive_sgd.hpp"
#include "core/controller.hpp"
#include "core/controller_health.hpp"
#include "frontier/far_queue.hpp"
#include "obs/metrics.hpp"

namespace sssp::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

AdaptiveSgd trained_sgd() {
  AdaptiveSgd sgd;
  for (int i = 1; i <= 40; ++i)
    sgd.update(static_cast<double>(i), 3.0 * i + (i % 5) * 0.25);
  return sgd;
}

TEST(SgdState, SaveLoadSaveIsStable) {
  const AdaptiveSgd original = trained_sgd();
  const AdaptiveSgd::State first = original.state();
  AdaptiveSgd restored;
  restored.restore(first);
  EXPECT_EQ(restored.state(), first);
}

TEST(SgdState, RestoredModelBitReproducesUpdates) {
  AdaptiveSgd a = trained_sgd();
  AdaptiveSgd b;
  b.restore(a.state());
  for (int i = 0; i < 20; ++i) {
    const double x = 1.0 + (i % 7);
    const double y = 2.9 * x + 0.1 * i;
    EXPECT_EQ(a.update(x, y), b.update(x, y)) << "diverged at update " << i;
  }
  EXPECT_EQ(a.state(), b.state());
}

TEST(SgdState, RestoreRejectsNonFiniteFields) {
  const AdaptiveSgd::State good = trained_sgd().state();
  auto reject = [&](auto mutate) {
    AdaptiveSgd::State bad = good;
    mutate(bad);
    AdaptiveSgd victim;
    const std::uint64_t before = victim.rejected();
    EXPECT_THROW(victim.restore(bad), std::invalid_argument);
    EXPECT_EQ(victim.rejected(), before + 1);
    // The firewall must leave the model untouched.
    EXPECT_EQ(victim.parameter(), AdaptiveSgd().parameter());
  };
  reject([](AdaptiveSgd::State& s) { s.theta = kNaN; });
  reject([](AdaptiveSgd::State& s) { s.g_bar = kNaN; });
  reject([](AdaptiveSgd::State& s) { s.v_bar = kNaN; });
  reject([](AdaptiveSgd::State& s) { s.h_bar = kNaN; });
  reject([](AdaptiveSgd::State& s) { s.tau = kNaN; });
  reject([](AdaptiveSgd::State& s) { s.mu = kNaN; });
}

TEST(SgdState, RestoreRejectsOutOfRangeFields) {
  const AdaptiveSgd::State good = trained_sgd().state();
  auto reject = [&](auto mutate) {
    AdaptiveSgd::State bad = good;
    mutate(bad);
    AdaptiveSgd victim;
    EXPECT_THROW(victim.restore(bad), std::invalid_argument);
  };
  reject([](AdaptiveSgd::State& s) { s.theta = 0.0; });  // below clamp
  reject([](AdaptiveSgd::State& s) { s.theta = 1e19; });  // above clamp
  reject([](AdaptiveSgd::State& s) { s.v_bar = -1.0; });
  reject([](AdaptiveSgd::State& s) { s.h_bar = 0.0; });
  reject([](AdaptiveSgd::State& s) { s.tau = 0.5; });  // tau >= 1 invariant
  reject([](AdaptiveSgd::State& s) { s.mu = -1e-3; });
}

TEST(SgdState, RejectedRestoreCountsInMetricsRegistry) {
  obs::MetricsRegistry::global().counter("sgd.rejected_observations").reset();
  obs::set_metrics_enabled(true);
  AdaptiveSgd::State bad = trained_sgd().state();
  bad.theta = kNaN;
  AdaptiveSgd victim;
  EXPECT_THROW(victim.restore(bad), std::invalid_argument);
  obs::set_metrics_enabled(false);
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("sgd.rejected_observations")
                .value(),
            1u);
}

ControllerConfig test_config() {
  ControllerConfig config;
  config.set_point = 500.0;
  config.initial_delta = 8.0;
  config.fallback_delta = 8.0;
  config.initial_degree = 4.0;
  return config;
}

DeltaController trained_controller() {
  DeltaController controller(test_config());
  double far = 900.0;
  for (int i = 0; i < 25; ++i) {
    controller.observe_advance(40.0 + i, 160.0 + 3.0 * i);
    controller.plan_delta(30.0 + (i % 9), far, far / 2.0,
                          controller.delta() * 2.0);
    far = far > 50.0 ? far - 30.0 : far;
  }
  return controller;
}

TEST(ControllerState, SaveLoadSaveIsStable) {
  const DeltaController original = trained_controller();
  const DeltaController::State first = original.state();
  DeltaController restored(test_config());
  restored.restore(first);
  EXPECT_EQ(restored.state(), first);
}

TEST(ControllerState, RestoredControllerBitReproducesPlans) {
  DeltaController a = trained_controller();
  DeltaController b(test_config());
  b.restore(a.state());
  double far = 600.0;
  for (int i = 0; i < 15; ++i) {
    a.observe_advance(50.0 + i, 180.0 + 2.0 * i);
    b.observe_advance(50.0 + i, 180.0 + 2.0 * i);
    const double pa = a.plan_delta(25.0 + i, far, far / 3.0, a.delta() * 2.0);
    const double pb = b.plan_delta(25.0 + i, far, far / 3.0, b.delta() * 2.0);
    EXPECT_EQ(pa, pb) << "plan diverged at iteration " << i;
    far -= 20.0;
  }
  EXPECT_EQ(a.state(), b.state());
}

TEST(ControllerState, RestoreRejectsDeltaOutsideBounds) {
  const ControllerConfig config = test_config();
  auto reject = [&](auto mutate) {
    DeltaController::State bad = trained_controller().state();
    mutate(bad);
    DeltaController victim(config);
    EXPECT_THROW(victim.restore(bad), std::invalid_argument);
    // Rejection must not half-apply: the victim still plans from its
    // pristine configuration.
    EXPECT_EQ(victim.delta(), config.initial_delta);
  };
  reject([&](DeltaController::State& s) { s.delta = config.min_delta / 2.0; });
  reject([&](DeltaController::State& s) { s.delta = config.max_delta * 2.0; });
  reject([](DeltaController::State& s) { s.delta = kNaN; });
  reject([](DeltaController::State& s) { s.last_alpha = 0.0; });
  reject([](DeltaController::State& s) { s.last_alpha = kNaN; });
  reject([](DeltaController::State& s) { s.pending_delta_change = kNaN; });
  reject([](DeltaController::State& s) { s.pending_x4 = kNaN; });
}

TEST(ControllerState, RestoreRejectsCorruptNestedModel) {
  DeltaController::State bad = trained_controller().state();
  bad.advance_sgd.theta = kNaN;
  DeltaController victim(test_config());
  EXPECT_THROW(victim.restore(bad), std::invalid_argument);
}

TEST(HealthState, RoundTripAndRejects) {
  ControllerHealth health{HealthConfig{}};
  ControllerHealth::State state = health.save_state();
  state.degradations = 2;
  state.recoveries = 1;
  state.rejected_inputs = 5;
  state.control_state = 1;  // kDegraded
  state.last_step_sign = -1;
  ControllerHealth restored{HealthConfig{}};
  restored.restore(state);
  EXPECT_EQ(restored.save_state(), state);
  EXPECT_EQ(restored.state(), ControlState::kDegraded);

  ControllerHealth::State bad = state;
  bad.control_state = 7;  // no such ControlState
  EXPECT_THROW(restored.restore(bad), std::invalid_argument);
  bad = state;
  bad.last_step_sign = 5;
  EXPECT_THROW(restored.restore(bad), std::invalid_argument);
}

frontier::FarQueue populated_queue() {
  frontier::FarQueue q(10);
  for (graph::VertexId v = 0; v < 200; ++v)
    q.push(v, 1 + (static_cast<graph::Distance>(v) * 7919) % 400);
  return q;
}

TEST(FarQueueState, SaveLoadSaveIsStable) {
  const frontier::FarQueue original = populated_queue();
  const frontier::FarQueue::State first = original.state();
  frontier::FarQueue restored(10);
  restored.restore(frontier::FarQueue::State(first));
  EXPECT_EQ(restored.state(), first);
}

TEST(FarQueueState, RestoredQueueBehavesIdentically) {
  frontier::FarQueue a = populated_queue();
  frontier::FarQueue b(99);  // seed bound is overwritten by restore
  b.restore(a.state());
  std::vector<graph::Distance> dist(200);
  for (graph::VertexId v = 0; v < 200; ++v)
    dist[v] = 1 + (static_cast<graph::Distance>(v) * 7919) % 400;
  std::vector<graph::VertexId> frontier_a, frontier_b;
  EXPECT_EQ(a.pull_below(150, dist, frontier_a),
            b.pull_below(150, dist, frontier_b));
  EXPECT_EQ(frontier_a, frontier_b);
  EXPECT_EQ(a.state(), b.state());
}

TEST(FarQueueState, RestoreRejectsMalformedSnapshots) {
  auto reject = [](auto mutate) {
    frontier::FarQueue::State bad = populated_queue().state();
    mutate(bad);
    frontier::FarQueue victim(10);
    EXPECT_THROW(victim.restore(std::move(bad)), std::invalid_argument);
  };
  // Boundary order violated.
  reject([](frontier::FarQueue::State& s) {
    if (s.bounds.size() >= 2) std::swap(s.bounds.front(), s.bounds.back());
  });
  // Shape mismatch between bounds and entry buckets.
  reject([](frontier::FarQueue::State& s) { s.entries.emplace_back(); });
  // An entry above its partition's upper bound.
  reject([](frontier::FarQueue::State& s) {
    s.entries.front().push_back({0, s.bounds.front() + 1});
  });
  // No partitions at all (the queue invariant keeps a final MAX bucket).
  reject([](frontier::FarQueue::State& s) {
    s.bounds.clear();
    s.entries.clear();
  });
}

}  // namespace
}  // namespace sssp::core
