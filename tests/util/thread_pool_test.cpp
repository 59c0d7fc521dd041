#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sssp::util {
namespace {

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.for_each_chunk(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t chunks = 0;
  pool.for_each_chunk(10, [&](std::size_t, std::size_t thread_id) {
    EXPECT_EQ(thread_id, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++chunks;
  });
  EXPECT_EQ(chunks, 10u);
}

// An exception thrown on the calling thread (thread 0) propagates like
// a worker's, and the pool stays usable.
TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_on_all([](std::size_t thread_id) {
                 if (thread_id == 0) throw std::runtime_error("boom");
               }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.for_each_chunk(10,
                      [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.for_each_chunk(97,
                        [&](std::size_t, std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 97);
  }
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  std::atomic<int> count{0};
  for_each_chunk(5, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPool, ForEachChunkCoversEveryChunkExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(257);
  pool.for_each_chunk(touched.size(), [&](std::size_t chunk, std::size_t) {
    touched[chunk].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ForEachChunkReportsValidThreadIds) {
  ThreadPool pool(4);
  std::atomic<int> bad{0};
  pool.for_each_chunk(500, [&](std::size_t, std::size_t thread_id) {
    if (thread_id >= pool.size()) bad.fetch_add(1);
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, ForEachChunkPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_each_chunk(64,
                                   [](std::size_t chunk, std::size_t) {
                                     if (chunk == 63)
                                       throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.for_each_chunk(8, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, RunOnAllVisitsEveryThreadOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> visits(pool.size());
  pool.run_on_all([&](std::size_t thread_id) {
    visits[thread_id].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, SetGlobalThreadsResizesThePool) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global().size(), 3u);
  ThreadPool::set_global_threads(5);
  EXPECT_EQ(ThreadPool::global().size(), 5u);
  // Matching size is a no-op (same pool object keeps working).
  ThreadPool* before = &ThreadPool::global();
  ThreadPool::set_global_threads(5);
  EXPECT_EQ(before, &ThreadPool::global());
  std::atomic<int> count{0};
  for_each_chunk(11, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 11);
  ThreadPool::set_global_threads(0);  // restore env/hardware default
}

}  // namespace
}  // namespace sssp::util
