#include "verify/certifier.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/builder.hpp"
#include "sssp/dijkstra.hpp"
#include "tests/sssp/test_graphs.hpp"
#include "util/thread_pool.hpp"

namespace sssp::verify {
namespace {

using algo::testing::diamond;
using algo::testing::random_graph;
using algo::testing::ring;

bool has_kind(const Certificate& cert, ViolationKind kind) {
  return std::any_of(cert.samples.begin(), cert.samples.end(),
                     [kind](const Violation& v) { return v.kind == kind; });
}

TEST(CertifierTest, CertifiesDijkstraOnHandGraphs) {
  for (const auto& g : {diamond(), ring(64)}) {
    const auto result = algo::dijkstra(g, 0);
    const Certificate cert = certify(g, result);
    EXPECT_TRUE(cert.certified) << cert.summary();
    EXPECT_EQ(cert.violations, 0u);
    EXPECT_EQ(cert.vertices_checked, g.num_vertices());
    EXPECT_EQ(cert.edges_checked, g.num_edges());
  }
}

TEST(CertifierTest, CertifiesDijkstraOnRandomGraphs) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto g = random_graph(512, 4.0, 100, seed);
    const Certificate cert = certify(g, algo::dijkstra(g, 0));
    EXPECT_TRUE(cert.certified) << "seed " << seed << ": " << cert.summary();
  }
}

TEST(CertifierTest, StrictModeCrossChecks) {
  const auto g = random_graph(256, 4.0, 50, 9);
  CertifyOptions options;
  options.strict = true;
  const Certificate cert = certify(g, algo::dijkstra(g, 0), options);
  EXPECT_TRUE(cert.certified);
  EXPECT_TRUE(cert.cross_checked);
}

TEST(CertifierTest, StrictModeSkipsAboveVertexCap) {
  const auto g = random_graph(256, 4.0, 50, 9);
  CertifyOptions options;
  options.strict = true;
  options.strict_max_vertices = 16;
  const Certificate cert = certify(g, algo::dijkstra(g, 0), options);
  EXPECT_TRUE(cert.certified);
  EXPECT_FALSE(cert.cross_checked);
}

TEST(CertifierTest, DetectsRaisedDistance) {
  const auto g = random_graph(512, 4.0, 100, 4);
  auto result = algo::dijkstra(g, 0);
  // Raise one settled label: some in-edge now relaxes below it and the
  // parent edge is no longer tight.
  for (graph::VertexId v = 1; v < g.num_vertices(); ++v) {
    if (result.distances[v] == graph::kInfiniteDistance) continue;
    if (v == 0) continue;
    result.distances[v] += 1;
    break;
  }
  const Certificate cert = certify(g, result);
  EXPECT_FALSE(cert.certified);
  EXPECT_GT(cert.violations, 0u);
}

TEST(CertifierTest, DetectsLoweredDistance) {
  const auto g = random_graph(512, 4.0, 100, 5);
  auto result = algo::dijkstra(g, 0);
  for (graph::VertexId v = 1; v < g.num_vertices(); ++v) {
    if (result.distances[v] == graph::kInfiniteDistance ||
        result.distances[v] < 2)
      continue;
    result.distances[v] -= 1;  // claims a path shorter than any real one
    break;
  }
  const Certificate cert = certify(g, result);
  EXPECT_FALSE(cert.certified);
  // A too-small label cannot have a tight parent edge (and may also
  // make out-edges look relaxable).
  EXPECT_TRUE(has_kind(cert, ViolationKind::kParentEdge) ||
              has_kind(cert, ViolationKind::kEdgeRelaxation))
      << cert.summary();
}

TEST(CertifierTest, DetectsFlippedParent) {
  const auto g = random_graph(512, 4.0, 100, 6);
  auto result = algo::dijkstra(g, 0);
  for (graph::VertexId v = 1; v < g.num_vertices(); ++v) {
    if (result.distances[v] == graph::kInfiniteDistance) continue;
    if (result.parents[v] == graph::kInvalidVertex) continue;
    result.parents[v] ^= 1;  // point at a sibling that is not tight
    break;
  }
  const Certificate cert = certify(g, result);
  EXPECT_FALSE(cert.certified) << cert.summary();
}

TEST(CertifierTest, DetectsWrongSourceLabel) {
  const auto g = diamond();
  auto result = algo::dijkstra(g, 0);
  result.distances[0] = 1;
  const Certificate cert = certify(g, result);
  EXPECT_FALSE(cert.certified);
  EXPECT_TRUE(has_kind(cert, ViolationKind::kSourceLabel)) << cert.summary();
}

TEST(CertifierTest, DetectsFiniteLabelOnUnreachableVertex) {
  // diamond() has no in-edges to vertex 0 and none from 3 onward.
  const auto g = graph::build_csr(5, {{0, 1, 5}, {1, 2, 1}, {0, 2, 3},
                                      {2, 3, 2}});
  auto result = algo::dijkstra(g, 0);
  ASSERT_EQ(result.distances[4], graph::kInfiniteDistance);
  result.distances[4] = 7;  // no edge reaches v4: the label is a lie
  const Certificate cert = certify(g, result);
  EXPECT_FALSE(cert.certified);
}

TEST(CertifierTest, DetectsParentOnUnreachableVertex) {
  const auto g = graph::build_csr(5, {{0, 1, 5}, {1, 2, 1}, {0, 2, 3},
                                      {2, 3, 2}});
  auto result = algo::dijkstra(g, 0);
  result.parents[4] = 2;  // INF label but a parent pointer
  const Certificate cert = certify(g, result);
  EXPECT_FALSE(cert.certified);
  EXPECT_TRUE(has_kind(cert, ViolationKind::kUnreachableLabel))
      << cert.summary();
}

TEST(CertifierTest, DetectsParentCycleThroughZeroWeightEdges) {
  // 0 -5-> 1 <-0-> 2: forge a 1 <-> 2 parent cycle where every parent
  // edge is tight (dist 5 + 0 == 5), so only the cycle walk catches it.
  const auto g =
      graph::build_csr(3, {{0, 1, 5}, {1, 2, 0}, {2, 1, 0}});
  algo::SsspResult result;
  result.source = 0;
  result.distances = {0, 5, 5};
  result.parents = {0, 2, 1};
  const Certificate cert = certify(g, result);
  EXPECT_FALSE(cert.certified);
  EXPECT_TRUE(has_kind(cert, ViolationKind::kParentCycle)) << cert.summary();
}

TEST(CertifierTest, AcceptsResultWithoutParents) {
  const auto g = random_graph(256, 4.0, 50, 7);
  algo::SsspResult result;
  result.source = 0;
  result.distances = algo::dijkstra_distances(g, 0);
  EXPECT_TRUE(certify(g, result).certified);
  // Existence-only tightness still catches a too-small label.
  for (graph::VertexId v = 1; v < g.num_vertices(); ++v) {
    if (result.distances[v] == graph::kInfiniteDistance ||
        result.distances[v] < 2)
      continue;
    result.distances[v] -= 1;
    break;
  }
  EXPECT_FALSE(certify(g, result).certified);
}

TEST(CertifierTest, ShapeMismatchIsASingleViolation) {
  const auto g = diamond();
  auto result = algo::dijkstra(g, 0);
  result.distances.pop_back();
  const Certificate cert = certify(g, result);
  EXPECT_FALSE(cert.certified);
  EXPECT_TRUE(has_kind(cert, ViolationKind::kShape));
}

TEST(CertifierTest, ViolationTotalExactSamplesCapped) {
  const auto g = algo::testing::ring(128);
  auto result = algo::dijkstra(g, 0);
  // Growing shift: every ring edge u -> u+1 now violates relaxation
  // (a uniform shift would keep interior edges consistent).
  for (graph::VertexId v = 1; v < 128; ++v) result.distances[v] += 10u * v;
  CertifyOptions options;
  options.max_violations = 4;
  const Certificate cert = certify(g, result, options);
  EXPECT_FALSE(cert.certified);
  EXPECT_LE(cert.samples.size(), 4u);
  EXPECT_GT(cert.violations, 4u);
}

// A graph above the pooled cut-off: at pool size 1 the sweep's chunks
// run inline on the caller, at 2, 4 and 8 pool threads claim them, and
// findings merge in chunk order either way. Enough corruption to
// overflow the sample cap makes that order visible in the samples.
TEST(CertifierTest, ParallelAndSerialAgree) {
  const auto g = random_graph(std::size_t{1} << 15, 4.0, 100, 11);
  auto result = algo::dijkstra(g, 0);
  for (const graph::VertexId v : {101u, 9000u, 17000u, 30000u})
    if (result.distances[v] != graph::kInfiniteDistance)
      result.distances[v] += 3;
  for (const graph::VertexId v : {577u, 21000u})
    if (result.distances[v] != graph::kInfiniteDistance)
      result.distances[v] -= 1;
  result.parents[12345] = 0;
  util::ThreadPool::set_global_threads(1);
  const Certificate serial = certify(g, result);
  ASSERT_FALSE(serial.certified);
  ASSERT_GT(serial.violations, CertifyOptions{}.max_violations);
  for (const std::size_t threads : {2, 4, 8}) {
    util::ThreadPool::set_global_threads(threads);
    const Certificate pooled = certify(g, result);
    EXPECT_EQ(pooled.certified, serial.certified) << "threads=" << threads;
    EXPECT_EQ(pooled.violations, serial.violations) << "threads=" << threads;
    ASSERT_EQ(pooled.samples.size(), serial.samples.size());
    for (std::size_t i = 0; i < serial.samples.size(); ++i) {
      EXPECT_EQ(pooled.samples[i].kind, serial.samples[i].kind);
      EXPECT_EQ(pooled.samples[i].vertex, serial.samples[i].vertex);
      EXPECT_EQ(pooled.samples[i].detail, serial.samples[i].detail);
    }
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(CertifierTest, ThrowsOnOutOfRangeSource) {
  const auto g = diamond();
  algo::SsspResult result = algo::dijkstra(g, 0);
  result.source = 99;
  EXPECT_THROW(certify(g, result), std::invalid_argument);
}

}  // namespace
}  // namespace sssp::verify
