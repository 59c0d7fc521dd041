// The headline guarantee of the checkpoint subsystem
// (docs/ROBUSTNESS.md, "Checkpoint & recovery"): a run killed at any
// iteration boundary and resumed from its checkpoint byte-reproduces
// the uninterrupted run — distances, parents, and the full X1-X4 /
// delta trajectory — at any thread count, even with probabilistic
// failpoints armed (their RNG streams travel in the checkpoint).
#include "ckpt/checkpointed_run.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/self_tuning.hpp"
#include "fault/failpoint.hpp"
#include "sssp/dijkstra.hpp"
#include "tests/sssp/test_graphs.hpp"
#include "util/run_control.hpp"
#include "util/thread_pool.hpp"

namespace sssp::ckpt {
namespace {

using algo::testing::random_graph;

core::SelfTuningOptions base_options() {
  core::SelfTuningOptions options;
  options.set_point = 600.0;
  options.measure_controller_time = false;  // bit-deterministic trajectory
  return options;
}

algo::SsspResult run_uninterrupted(const graph::CsrGraph& g,
                                   graph::VertexId source,
                                   const core::SelfTuningOptions& options) {
  core::SelfTuningRun run(g, source, options);
  while (run.step()) {
  }
  return run.take_result();
}

void expect_identical(const algo::SsspResult& a, const algo::SsspResult& b) {
  EXPECT_EQ(a.distances, b.distances);
  EXPECT_EQ(a.parents, b.parents);
  EXPECT_EQ(a.improving_relaxations, b.improving_relaxations);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i)
    EXPECT_EQ(a.iterations[i], b.iterations[i]) << "iteration " << i;
}

RunState snapshot_state(const graph::CsrGraph& g, graph::VertexId source,
                        const core::SelfTuningOptions& options,
                        const core::SelfTuningRun& run) {
  RunState state;
  state.meta.algorithm = "self-tuning";
  state.meta.graph_fingerprint = graph_fingerprint(g);
  state.meta.num_vertices = g.num_vertices();
  state.meta.num_edges = g.num_edges();
  state.meta.source = source;
  state.meta.iterations_completed = run.iterations_completed();
  state.options = options;
  state.snapshot = run.snapshot();
  state.failpoints = fault::FailpointRegistry::global().capture_runtime();
  return state;
}

struct ResumeCase {
  std::size_t kill_after;  // iterations completed before the "crash"
  std::size_t threads;
};

class ResumeExactness : public ::testing::TestWithParam<ResumeCase> {
 protected:
  void TearDown() override {
    fault::FailpointRegistry::global().disarm_all();
    util::ThreadPool::set_global_threads(0);
  }
};

TEST_P(ResumeExactness, KillAndResumeBitIdentical) {
  const auto [kill_after, threads] = GetParam();
  util::ThreadPool::set_global_threads(threads);
  const auto g = random_graph(2500, 6.0, 99, 23);
  const auto options = base_options();
  const auto baseline = run_uninterrupted(g, 1, options);
  ASSERT_GT(baseline.iterations.size(), kill_after);

  // "Crash": step K iterations, checkpoint through the full serialize /
  // deserialize pipeline, abandon the run object.
  core::SelfTuningRun doomed(g, 1, options);
  for (std::size_t i = 0; i < kill_after; ++i) ASSERT_TRUE(doomed.step());
  const std::string bytes =
      serialize_checkpoint(snapshot_state(g, 1, options, doomed));

  // "New process": load, validate, resume, run to completion.
  RunState loaded = deserialize_checkpoint(bytes);
  validate_against(loaded, g);
  EXPECT_EQ(loaded.meta.iterations_completed, kill_after);
  core::SelfTuningRun resumed(g, loaded.options, std::move(loaded.snapshot));
  EXPECT_EQ(resumed.iterations_completed(), kill_after);
  while (resumed.step()) {
  }
  expect_identical(baseline, resumed.take_result());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ResumeExactness,
    ::testing::Values(ResumeCase{1, 1}, ResumeCase{3, 1}, ResumeCase{7, 1},
                      ResumeCase{1, 4}, ResumeCase{3, 4}, ResumeCase{7, 4}),
    [](const ::testing::TestParamInfo<ResumeCase>& tpi) {
      return "kill" + std::to_string(tpi.param.kill_after) + "_t" +
             std::to_string(tpi.param.threads);
    });

class ResumeDriverTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::FailpointRegistry::global().disarm_all();
  }
  static std::string temp_path(const char* name) {
    return ::testing::TempDir() + name;
  }
};

TEST_F(ResumeDriverTest, FailpointStreamsResumeExactly) {
  // A probabilistic failpoint poisons SGD observations at random. The
  // checkpoint carries its RNG stream, so the resumed run must see the
  // *same* remaining fire pattern as the uninterrupted run — the
  // controller trajectories (delta, degraded flags) stay bit-identical.
  const auto g = random_graph(2000, 5.0, 99, 31);
  const auto options = base_options();
  const char* kSpec = "sgd.observe.nan=0.35,11";

  auto& registry = fault::FailpointRegistry::global();
  registry.disarm_all();
  registry.arm_list(kSpec);
  const auto baseline = run_uninterrupted(g, 0, options);
  ASSERT_GT(baseline.iterations.size(), 8u);

  registry.disarm_all();
  registry.arm_list(kSpec);
  core::SelfTuningRun doomed(g, 0, options);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(doomed.step());
  const std::string bytes =
      serialize_checkpoint(snapshot_state(g, 0, options, doomed));

  // New process: arm from the same spec (fresh streams), then restore
  // the checkpointed streams over them — mid-sequence, not at the seed.
  registry.disarm_all();
  registry.arm_list(kSpec);
  RunState loaded = deserialize_checkpoint(bytes);
  registry.restore_runtime(loaded.failpoints);
  core::SelfTuningRun resumed(g, loaded.options, std::move(loaded.snapshot));
  while (resumed.step()) {
  }
  expect_identical(baseline, resumed.take_result());
}

TEST_F(ResumeDriverTest, PendingStopAbortsMidIteration) {
  const auto g = random_graph(1500, 5.0, 99, 41);
  auto options = base_options();
  util::RunControl control;
  options.control = &control;
  core::SelfTuningRun run(g, 0, options);
  ASSERT_TRUE(run.step());
  control.request_stop(util::StopReason::kInterrupt);
  try {
    run.step();
    FAIL() << "expected StopRequested";
  } catch (const util::StopRequested& e) {
    EXPECT_EQ(e.reason(), util::StopReason::kInterrupt);
  }
}

TEST_F(ResumeDriverTest, DriverStopsAtBoundaryAndResumes) {
  const auto g = random_graph(2000, 5.0, 99, 47);
  const auto options = base_options();
  const auto baseline = run_uninterrupted(g, 2, options);
  const std::string path = temp_path("driver.ckpt");

  // A stop already pending when the driver polls lands on the iteration
  // boundary: final_on_stop checkpoints there, nothing is torn.
  util::RunControl control;
  control.request_stop(util::StopReason::kInterrupt);
  CheckpointPolicy policy;
  policy.path = path;
  const CheckpointedResult stopped = run_self_tuning_checkpointed(
      g, 2, options, policy, &control, nullptr);
  EXPECT_EQ(stopped.stop, util::StopReason::kInterrupt);
  EXPECT_FALSE(stopped.stopped_mid_iteration);
  EXPECT_EQ(stopped.checkpoints_written, 1u);

  // Resume without any control: the run completes and matches the
  // uninterrupted baseline exactly.
  RunState resume = load_checkpoint_file(path);
  const CheckpointedResult finished = run_self_tuning_checkpointed(
      g, 999 /* ignored on resume */, base_options(), CheckpointPolicy{},
      nullptr, &resume);
  EXPECT_TRUE(finished.resumed);
  EXPECT_EQ(finished.resumed_from_iteration, 0u);
  EXPECT_EQ(finished.stop, util::StopReason::kNone);
  expect_identical(baseline, finished.result);
  std::remove(path.c_str());
}

TEST_F(ResumeDriverTest, CadenceCheckpointsAndMidRunResumeMatch) {
  const auto g = random_graph(2200, 5.0, 99, 53);
  const auto options = base_options();
  const auto baseline = run_uninterrupted(g, 0, options);
  const std::string path = temp_path("cadence.ckpt");

  // Crash (injected) partway through a checkpointed run: the 3rd write
  // dies after the tmp file, so `path` holds the 2nd cadence checkpoint
  // (iteration 4 with every_iterations = 2).
  fault::FailpointRegistry::global().arm_list("ckpt.crash_after_tmp=3");
  CheckpointPolicy policy;
  policy.path = path;
  policy.every_iterations = 2;
  util::RunControl control;
  EXPECT_THROW(run_self_tuning_checkpointed(g, 0, options, policy, &control,
                                            nullptr),
               InjectedCrash);
  fault::FailpointRegistry::global().disarm_all();

  RunState resume = load_checkpoint_file(path);
  EXPECT_EQ(resume.meta.iterations_completed, 4u);
  const CheckpointedResult finished = run_self_tuning_checkpointed(
      g, 0, options, CheckpointPolicy{}, nullptr, &resume);
  EXPECT_TRUE(finished.resumed);
  EXPECT_EQ(finished.resumed_from_iteration, 4u);
  expect_identical(baseline, finished.result);
  EXPECT_EQ(algo::count_distance_mismatches(finished.result.distances,
                                            algo::dijkstra_distances(g, 0)),
            0u);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(ResumeDriverTest, ExpiredDeadlineStopsBeforeFirstStep) {
  const auto g = random_graph(1500, 5.0, 99, 59);
  util::RunControl control;
  control.set_deadline(1e-9);
  const CheckpointedResult stopped = run_self_tuning_checkpointed(
      g, 0, base_options(), CheckpointPolicy{}, &control, nullptr);
  EXPECT_EQ(stopped.stop, util::StopReason::kDeadline);
  EXPECT_EQ(stopped.result.iterations.size(), 0u);
}

TEST_F(ResumeDriverTest, ResumeIgnoresCallerOptionsAndSource) {
  // The checkpoint's stored options drive the resumed run; the caller's
  // (different set-point, different source) must not fork the
  // trajectory.
  const auto g = random_graph(1800, 5.0, 99, 61);
  const auto options = base_options();
  const auto baseline = run_uninterrupted(g, 7, options);

  core::SelfTuningRun doomed(g, 7, options);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(doomed.step());
  RunState state = snapshot_state(g, 7, options, doomed);

  auto foreign = base_options();
  foreign.set_point = 5.0;  // would produce a wildly different trajectory
  const CheckpointedResult finished = run_self_tuning_checkpointed(
      g, 0, foreign, CheckpointPolicy{}, nullptr, &state);
  EXPECT_EQ(finished.result.source, 7u);
  expect_identical(baseline, finished.result);
}

}  // namespace
}  // namespace sssp::ckpt
