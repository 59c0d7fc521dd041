// End-to-end determinism across thread counts: the full self-tuning and
// near-far drivers must produce bit-identical distances, parent trees,
// and per-iteration statistics (X1/X2/X3/X4, improving relaxations,
// rebalance work, far-queue sizes, delta trajectory) whether the global
// pool has 1, 2, 4, or 8 threads — the contract that makes recorded
// workloads machine-independent. The engine advances serially; the
// pool still runs the far queue's bulk push on large spills.
// A failpoint-armed run rides along: fault-injection campaigns must be
// equally reproducible at any thread count.
#include <gtest/gtest.h>

#include <vector>

#include "core/self_tuning.hpp"
#include "fault/failpoint.hpp"
#include "graph/csr.hpp"
#include "graph/degree_stats.hpp"
#include "graph/rmat.hpp"
#include "graph/road.hpp"
#include "sssp/near_far.hpp"
#include "sssp/result.hpp"
#include "util/thread_pool.hpp"

namespace sssp {
namespace {

const graph::CsrGraph& road() {
  static const graph::CsrGraph g = [] {
    graph::RoadOptions options;
    options.rows = 96;
    options.cols = 96;
    return graph::generate_road(options);
  }();
  return g;
}

const graph::CsrGraph& rmat() {
  static const graph::CsrGraph g = [] {
    graph::RmatOptions options;
    options.scale = 12;
    options.num_edges = 1u << 15;
    return graph::generate_rmat(options);
  }();
  return g;
}

// Everything the determinism contract covers, comparable in one shot.
struct RunFingerprint {
  std::vector<graph::Distance> distances;
  std::vector<graph::VertexId> parents;
  std::vector<std::vector<std::uint64_t>> iterations;
  std::vector<double> deltas;
  std::uint64_t improving = 0;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint fingerprint(const algo::SsspResult& result) {
  RunFingerprint fp;
  fp.distances = result.distances;
  fp.parents = result.parents;
  fp.improving = result.improving_relaxations;
  for (const auto& it : result.iterations) {
    fp.iterations.push_back({it.x1, it.x2, it.x3, it.x4,
                             it.improving_relaxations, it.rebalance_items,
                             it.far_queue_size});
    fp.deltas.push_back(it.delta);
  }
  return fp;
}

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

template <typename Run>
void expect_identical_at_every_thread_count(Run run, const char* label) {
  util::ThreadPool::set_global_threads(1);
  const RunFingerprint reference = fingerprint(run());
  for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
    util::ThreadPool::set_global_threads(kThreadCounts[i]);
    const RunFingerprint fp = fingerprint(run());
    EXPECT_EQ(fp, reference)
        << label << " diverged at threads=" << kThreadCounts[i];
  }
  util::ThreadPool::set_global_threads(0);
}

core::SelfTuningOptions self_tuning_options() {
  core::SelfTuningOptions options;
  options.set_point = 2000.0;
  // Wall-clock measurements are inherently nondeterministic; everything
  // else in the fingerprint must be bit-stable.
  options.measure_controller_time = false;
  return options;
}

TEST(ParallelDeterminism, SelfTuningOnRoad) {
  const auto& g = road();
  const auto src = graph::max_degree_vertex(g);
  expect_identical_at_every_thread_count(
      [&] { return core::self_tuning_sssp(g, src, self_tuning_options()); },
      "self-tuning/road");
}

TEST(ParallelDeterminism, SelfTuningOnRmat) {
  const auto& g = rmat();
  const auto src = graph::max_degree_vertex(g);
  expect_identical_at_every_thread_count(
      [&] { return core::self_tuning_sssp(g, src, self_tuning_options()); },
      "self-tuning/rmat");
}

TEST(ParallelDeterminism, NearFarOnRoad) {
  const auto& g = road();
  const auto src = graph::max_degree_vertex(g);
  expect_identical_at_every_thread_count(
      [&] { return algo::near_far(g, src); }, "near-far/road");
}

TEST(ParallelDeterminism, NearFarOnRmat) {
  const auto& g = rmat();
  const auto src = graph::max_degree_vertex(g);
  expect_identical_at_every_thread_count(
      [&] { return algo::near_far(g, src); }, "near-far/rmat");
}

TEST(ParallelDeterminism, FailpointArmedRunIsReproducible) {
  // Fault-injection campaigns must replay identically at any thread
  // count: same fire counts, same degraded-mode trajectory, same
  // results. The controller's X4 firewall path is armed to fire on
  // every hit (deterministic by construction) — what matters is that
  // the number of hits (iterations) does not depend on the schedule.
  const auto& g = rmat();
  const auto src = graph::max_degree_vertex(g);
  auto& registry = fault::FailpointRegistry::global();

  std::uint64_t reference_fires = 0;
  RunFingerprint reference;
  for (std::size_t i = 0; i < std::size(kThreadCounts); ++i) {
    util::ThreadPool::set_global_threads(kThreadCounts[i]);
    registry.arm("controller.x4.nan");
    const std::uint64_t fires_before = registry.total_fires();
    const RunFingerprint fp =
        fingerprint(core::self_tuning_sssp(g, src, self_tuning_options()));
    const std::uint64_t fires = registry.total_fires() - fires_before;
    registry.disarm_all();
    if (i == 0) {
      reference = fp;
      reference_fires = fires;
      EXPECT_GT(fires, 0u);  // the failpoint actually exercised the path
    } else {
      EXPECT_EQ(fp, reference)
          << "failpoint run diverged at threads=" << kThreadCounts[i];
      EXPECT_EQ(fires, reference_fires)
          << "fire count diverged at threads=" << kThreadCounts[i];
    }
  }
  util::ThreadPool::set_global_threads(0);
}

}  // namespace
}  // namespace sssp
