#include "sssp/batch_engine.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "fault/failpoint.hpp"
#include "graph/rmat.hpp"
#include "graph/road.hpp"
#include "sssp/near_far.hpp"
#include "tests/sssp/test_graphs.hpp"
#include "util/thread_pool.hpp"
#include "verify/certifier.hpp"

namespace sssp::algo {
namespace {

graph::CsrGraph road_fixture() {
  graph::RoadOptions opts;
  opts.rows = 48;
  opts.cols = 48;
  opts.seed = 7;
  return graph::generate_road(opts);
}

graph::CsrGraph rmat_fixture() {
  graph::RmatOptions opts;
  opts.scale = 11;
  opts.num_edges = 1u << 14;
  opts.seed = 42;
  return graph::generate_rmat(opts);
}

std::vector<graph::VertexId> pick_sources(const graph::CsrGraph& g,
                                          std::size_t k) {
  // Spread sources across the id space; skip isolated vertices so every
  // lane does real work.
  std::vector<graph::VertexId> sources;
  const std::size_t n = g.num_vertices();
  for (std::size_t i = 0; sources.size() < k && i < n; ++i) {
    const auto v = static_cast<graph::VertexId>((i * n / k + i) % n);
    if (!g.neighbors(v).empty()) sources.push_back(v);
  }
  return sources;
}

// Restores the global pool width even when an assertion fails.
struct ThreadGuard {
  ~ThreadGuard() { util::ThreadPool::set_global_threads(0); }
};

// The acceptance bar: every lane is the single-source near-far run —
// distances, parents, improving count and iteration trace — at thread
// counts {1, 4, 8}, on a road-class and an R-MAT-class graph.
TEST(BatchEngine, LanesMatchSingleSourceAcrossThreadsAndStrategies) {
  ThreadGuard guard;
  for (const auto& g : {road_fixture(), rmat_fixture()}) {
    const auto sources = pick_sources(g, 6);
    ASSERT_EQ(sources.size(), 6u);

    std::vector<SsspResult> baseline;
    for (const auto source : sources)
      baseline.push_back(near_far(g, source, {}));

    for (const std::size_t threads : {1u, 4u, 8u}) {
      util::ThreadPool::set_global_threads(threads);
      const auto batch = run_batch(g, sources);
      ASSERT_EQ(batch.lanes.size(), sources.size());
      for (std::size_t l = 0; l < sources.size(); ++l) {
        const auto& lane = batch.lanes[l];
        ASSERT_EQ(lane.distances.size(), baseline[l].distances.size());
        EXPECT_EQ(0, std::memcmp(lane.distances.data(),
                                 baseline[l].distances.data(),
                                 lane.distances.size() *
                                     sizeof(graph::Distance)))
            << "threads=" << threads << " lane=" << l
            << " source=" << sources[l];
        EXPECT_EQ(lane.parents, baseline[l].parents)
            << "threads=" << threads << " lane=" << l;
        EXPECT_EQ(lane.improving_relaxations,
                  baseline[l].improving_relaxations)
            << "threads=" << threads << " lane=" << l;
        EXPECT_EQ(lane.iterations, baseline[l].iterations)
            << "threads=" << threads << " lane=" << l;
      }
    }
  }
}

// Lanes keep near_far's own parents: at pool sizes 1 and 4 every lane's
// parent array equals the single-source run's, and every lane certifies
// with it.
TEST(BatchEngine, ParentsCanonicalAndEveryLaneCertifies) {
  ThreadGuard guard;
  const auto g = road_fixture();
  const auto sources = pick_sources(g, 5);

  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool::set_global_threads(threads);
    const auto batch = run_batch(g, sources);
    ASSERT_EQ(batch.lanes.size(), sources.size());
    for (std::size_t l = 0; l < sources.size(); ++l) {
      EXPECT_EQ(batch.lanes[l].parents, near_far(g, sources[l], {}).parents)
          << "threads=" << threads << " lane=" << l;
      const auto cert = verify::certify(g, batch.lanes[l]);
      EXPECT_TRUE(cert.certified)
          << "threads=" << threads << " lane=" << l << ": "
          << cert.summary();
    }
  }
}

// Failpoint drill: batch.lane.flip_dist corrupts exactly lane 0 after
// the run, so the per-lane certifier must fail that lane and pass the
// rest — the per-lane verdicts the soak harness depends on.
TEST(BatchEngine, FlipDistFailpointFailsExactlyLaneZero) {
  const auto g = road_fixture();
  const auto sources = pick_sources(g, 4);

  fault::FailpointRegistry::global().arm("batch.lane.flip_dist");
  const auto batch = run_batch(g, sources, {});
  fault::FailpointRegistry::global().disarm_all();

  ASSERT_EQ(batch.lanes.size(), 4u);
  for (std::size_t l = 0; l < batch.lanes.size(); ++l) {
    const auto cert = verify::certify(g, batch.lanes[l]);
    if (l == 0) {
      EXPECT_FALSE(cert.certified) << "corrupted lane must fail";
    } else {
      EXPECT_TRUE(cert.certified) << "lane " << l << ": " << cert.summary();
    }
  }
}

// Memory-budget degrade (docs/ROBUSTNESS.md, "Resource budgets &
// exhaustion"): when the projected lane bytes are refused, the
// batch recursively splits in half down to K=1 instead of failing —
// and every lane still matches the unconstrained run exactly.
TEST(BatchEngine, MemoryRefusalSplitsBatchWithIdenticalResults) {
  const auto g = road_fixture();
  const auto sources = pick_sources(g, 6);
  const auto baseline = run_batch(g, sources, {});

  fault::FailpointRegistry::global().arm("res.batch.alloc");
  const auto split = run_batch(g, sources, {});
  fault::FailpointRegistry::global().disarm_all();

  ASSERT_EQ(split.lanes.size(), baseline.lanes.size());
  for (std::size_t l = 0; l < split.lanes.size(); ++l) {
    EXPECT_EQ(split.lanes[l].distances, baseline.lanes[l].distances)
        << "lane " << l;
    EXPECT_EQ(split.lanes[l].parents, baseline.lanes[l].parents)
        << "lane " << l;
  }
}

TEST(BatchEngine, DuplicateSourcesProduceIdenticalLanes) {
  const auto g = testing::random_graph(2000, 5.0, 30, 11);
  const std::vector<graph::VertexId> sources = {17, 17, 17};
  const auto batch = run_batch(g, sources);
  EXPECT_EQ(batch.lanes[0].distances, batch.lanes[1].distances);
  EXPECT_EQ(batch.lanes[1].distances, batch.lanes[2].distances);
}

TEST(BatchEngine, RejectsBadInputs) {
  const auto g = testing::diamond();
  EXPECT_THROW(run_batch(g, {}, {}), std::invalid_argument);
  const std::vector<graph::VertexId> out_of_range = {0, 99};
  EXPECT_THROW(run_batch(g, out_of_range, {}), std::invalid_argument);
  std::vector<graph::VertexId> too_many(kMaxBatchLanes + 1, 0);
  EXPECT_THROW(run_batch(g, too_many, {}), std::invalid_argument);
}

}  // namespace
}  // namespace sssp::algo
