#include "core/partitioned_far_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/thread_pool.hpp"

namespace sssp::core {
namespace {

using graph::Distance;
using graph::kInfiniteDistance;
using graph::VertexId;

TEST(PartitionedFarQueue, InitialLayoutIsTwoPartitions) {
  PartitionedFarQueue q(50);
  EXPECT_EQ(q.num_partitions(), 2u);
  EXPECT_EQ(q.current_partition_bound(), 50u);
  EXPECT_EQ(q.current_lower_bound(), 0u);
  EXPECT_TRUE(q.empty());
  q.check_invariants();
}

TEST(PartitionedFarQueue, RejectsZeroFirstBound) {
  EXPECT_THROW(PartitionedFarQueue(0), std::invalid_argument);
}

TEST(PartitionedFarQueue, PushRoutesByDistance) {
  PartitionedFarQueue q(50);
  q.push(0, 30);   // partition 0 (d <= 50)
  q.push(1, 50);   // partition 0 (boundary inclusive)
  q.push(2, 51);   // partition 1
  q.push(3, 1000000);  // partition 1 (MAX)
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.current_partition_size(), 2u);
  q.check_invariants();
}

TEST(PartitionedFarQueue, PullBelowMovesLiveEntries) {
  PartitionedFarQueue q(50);
  std::vector<Distance> dist{10, 40, 80};
  q.push(0, 10);
  q.push(1, 40);
  q.push(2, 80);
  std::vector<VertexId> frontier;
  const std::uint64_t scanned = q.pull_below(45, dist, frontier);
  EXPECT_EQ(scanned, 2u);  // only partition 0 intersects [0, 45)
  ASSERT_EQ(frontier.size(), 2u);
  EXPECT_EQ(q.size(), 1u);
  q.check_invariants();
}

TEST(PartitionedFarQueue, PullDropsStaleEntries) {
  PartitionedFarQueue q(50);
  std::vector<Distance> dist{5};  // improved since push
  q.push(0, 30);
  std::vector<VertexId> frontier;
  q.pull_below(100, dist, frontier);
  EXPECT_TRUE(frontier.empty());
  EXPECT_TRUE(q.empty());
}

TEST(PartitionedFarQueue, PullSkipsPartitionsAboveThreshold) {
  PartitionedFarQueue q(10);
  std::vector<Distance> dist{5, 500};
  q.push(0, 5);
  q.push(1, 500);
  std::vector<VertexId> frontier;
  // Threshold 8 only touches the first partition: scanned == 1.
  EXPECT_EQ(q.pull_below(8, dist, frontier), 1u);
  EXPECT_EQ(frontier.size(), 1u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(PartitionedFarQueue, ConsumedFrontPartitionIsDropped) {
  PartitionedFarQueue q(10);
  std::vector<Distance> dist{5};
  q.push(0, 5);
  std::vector<VertexId> frontier;
  q.pull_below(100, dist, frontier);
  // Partition [0,10] drained away; lower bound advanced.
  EXPECT_EQ(q.current_lower_bound(), 10u);
  EXPECT_EQ(q.num_partitions(), 1u);
  EXPECT_EQ(q.current_partition_bound(), kInfiniteDistance);
  q.check_invariants();
}

TEST(PartitionedFarQueue, UpdateBoundaryTightensMonotonically) {
  PartitionedFarQueue q(1000);
  q.push(0, 100);
  q.push(1, 900);
  // P / alpha = 200: bound should tighten 1000 -> 200.
  const std::uint64_t moved = q.update_boundary(200.0, 1.0);
  EXPECT_EQ(moved, 1u);  // entry at 900 displaced to the next partition
  EXPECT_EQ(q.current_partition_bound(), 200u);
  q.check_invariants();
  // A larger target must NOT grow the bound back (monotone rule).
  EXPECT_EQ(q.update_boundary(100000.0, 1.0), 0u);
  EXPECT_EQ(q.current_partition_bound(), 200u);
}

TEST(PartitionedFarQueue, UpdateBoundaryOnLastPartitionAppendsMax) {
  PartitionedFarQueue q(10);
  std::vector<Distance> dist{5};
  q.push(0, 5);
  std::vector<VertexId> frontier;
  q.pull_below(100, dist, frontier);  // only the MAX partition remains
  ASSERT_EQ(q.num_partitions(), 1u);
  q.push(1, 50);
  q.update_boundary(30.0, 1.0);  // tightens MAX -> 10 + 30 = 40
  EXPECT_EQ(q.num_partitions(), 2u);
  EXPECT_EQ(q.current_partition_bound(), 40u);
  q.check_invariants();
}

TEST(PartitionedFarQueue, UpdateBoundaryKeepsMinimumWidth) {
  PartitionedFarQueue q(1000);
  q.push(0, 500);
  // Tiny P/alpha: bound must stay at least lower_bound + 1.
  q.update_boundary(1e-3, 1e6);
  EXPECT_GE(q.current_partition_bound(), 1u);
  q.check_invariants();
}

TEST(PartitionedFarQueue, UpdateBoundaryRejectsBadInputs) {
  PartitionedFarQueue q(10);
  EXPECT_THROW(q.update_boundary(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(q.update_boundary(10.0, 0.0), std::invalid_argument);
}

TEST(PartitionedFarQueue, MinLiveDistanceSkipsStale) {
  PartitionedFarQueue q(100);
  std::vector<Distance> dist{3, 60, 700};
  q.push(0, 9);    // stale
  q.push(1, 60);   // live, partition 0
  q.push(2, 700);  // live, partition 1
  EXPECT_EQ(q.min_live_distance(dist), 60u);
}

TEST(PartitionedFarQueue, MinLiveDistanceEmptyIsInfinite) {
  PartitionedFarQueue q(100);
  std::vector<Distance> dist;
  EXPECT_EQ(q.min_live_distance(dist), kInfiniteDistance);
}

TEST(PartitionedFarQueue, ClearRemovesEverything) {
  PartitionedFarQueue q(100);
  q.push(0, 5);
  q.push(1, 500);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.check_invariants();
}

TEST(PartitionedFarQueue, PullFrontPartitionDrainsAndAdvances) {
  PartitionedFarQueue q(100);
  std::vector<Distance> dist{10, 50, 500};
  q.push(0, 10);
  q.push(1, 50);
  q.push(2, 500);
  std::vector<VertexId> frontier;
  const auto pull = q.pull_front_partition(dist, frontier);
  EXPECT_TRUE(pull.exhausted);
  EXPECT_EQ(pull.bound, 100u);
  EXPECT_EQ(pull.scanned, 2u);
  EXPECT_EQ(pull.pulled, 2u);
  EXPECT_EQ(frontier.size(), 2u);
  EXPECT_EQ(q.current_lower_bound(), 100u);  // partition consumed
  EXPECT_EQ(q.size(), 1u);
  q.check_invariants();
}

TEST(PartitionedFarQueue, CountLimitedPullLeavesRemainder) {
  PartitionedFarQueue q(1000);
  std::vector<Distance> dist(10);
  for (VertexId v = 0; v < 10; ++v) {
    dist[v] = 100 + v;
    q.push(v, dist[v]);
  }
  std::vector<VertexId> frontier;
  const auto pull = q.pull_front_partition(dist, frontier, 4);
  EXPECT_FALSE(pull.exhausted);
  EXPECT_EQ(pull.pulled, 4u);
  EXPECT_EQ(frontier.size(), 4u);
  EXPECT_EQ(q.size(), 6u);
  // The partition (and its floor) stay in place for the remainder.
  EXPECT_EQ(q.current_lower_bound(), 0u);
  q.check_invariants();
  // A second unlimited pull drains the rest.
  const auto rest = q.pull_front_partition(dist, frontier);
  EXPECT_TRUE(rest.exhausted);
  EXPECT_EQ(frontier.size(), 10u);
  EXPECT_TRUE(q.empty());
}

TEST(PartitionedFarQueue, CountLimitCountsLiveEntriesOnly) {
  PartitionedFarQueue q(1000);
  // Interleave stale and live entries: the limit applies to live pulls.
  std::vector<Distance> dist{5, 100, 5, 100};  // 0 and 2 stale below
  q.push(0, 50);   // stale (dist now 5)
  q.push(1, 100);  // live
  q.push(2, 60);   // stale
  q.push(3, 100);  // live
  std::vector<VertexId> frontier;
  const auto pull = q.pull_front_partition(dist, frontier, 2);
  EXPECT_EQ(pull.pulled, 2u);
  EXPECT_EQ(pull.scanned, 4u);  // scanned through the stale ones
  EXPECT_TRUE(pull.exhausted);
  q.check_invariants();
}

TEST(PartitionedFarQueue, RepeatedTighteningBuildsManyPartitions) {
  PartitionedFarQueue q(1u << 20);
  for (VertexId v = 0; v < 100; ++v) q.push(v, 1000 + v * 997);
  std::vector<Distance> dist(100);
  for (std::size_t i = 0; i < 100; ++i) dist[i] = 1000 + i * 997;
  for (int round = 0; round < 6; ++round) {
    q.update_boundary(5000.0, 1.0);
    q.check_invariants();
  }
  EXPECT_GE(q.num_partitions(), 2u);
  // All entries still accounted for.
  EXPECT_EQ(q.size(), 100u);
  // And still retrievable in distance order.
  std::vector<VertexId> frontier;
  q.pull_below(kInfiniteDistance, dist, frontier);
  EXPECT_EQ(frontier.size(), 100u);
}

// A spill large enough for the pooled bulk push must land exactly as
// pushing it entry by entry in input order would, behind the entries
// already queued, at any pool size.
TEST(PartitionedFarQueue, BulkPushMatchesSerialPushesAtEveryPoolSize) {
  constexpr std::size_t kN = 10000;
  std::vector<Distance> dist(kN);
  std::vector<VertexId> spill(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    dist[i] = 1 + (i * 7919) % 60000;
    spill[i] = static_cast<VertexId>((i * 7) % kN);  // scrambled order
  }
  const auto seeded = [] {
    PartitionedFarQueue q(30000);
    q.push(0, 10);
    q.push(1, 40000);
    return q;
  };
  PartitionedFarQueue serial = seeded();
  for (const VertexId v : spill) serial.push(v, dist[v]);
  for (const std::size_t threads : {1, 2, 4, 8}) {
    util::ThreadPool::set_global_threads(threads);
    PartitionedFarQueue bulk = seeded();
    bulk.push_bulk(spill, dist);
    EXPECT_EQ(bulk.size(), serial.size()) << "threads=" << threads;
    EXPECT_EQ(bulk.state(), serial.state()) << "threads=" << threads;
  }
  util::ThreadPool::set_global_threads(0);
}

}  // namespace
}  // namespace sssp::core
