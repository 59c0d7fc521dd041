// A small, dependency-free thread pool built around dynamic chunk
// claiming: workers pull chunk indices from a shared atomic counter, so
// a straggler chunk (one scale-free hub, one slow core) never serializes
// the rest of the iteration behind a static schedule.
//
// Two layers:
//
//   run_on_all(fn)        — type-erased: invoke fn(thread_id) once on
//                           every participating thread (the caller is
//                           thread 0). One std::function call per thread
//                           per batch; nothing type-erased runs in inner
//                           loops.
//   for_each_chunk(n, b)  — templated: body(chunk, thread_id) for every
//                           chunk in [0, n), claimed dynamically. The
//                           body is a template parameter, so per-chunk
//                           dispatch inlines (no std::function in the
//                           hot path).
//   parallel_for(n, body) — legacy range API over for_each_chunk.
//
// The library runs work across queries on this pool — independent
// batch lanes (sssp/batch_engine.hpp) — plus the certifier's edge sweep
// and PartitionedFarQueue::push_bulk, each with results independent of
// thread count and schedule (docs/PERFORMANCE.md, "Where parallelism
// lives"). The pool itself guarantees only that every chunk runs
// exactly once and that a batch's writes happen-before run_on_all
// returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sssp::util {

class ThreadPool {
 public:
  // threads == 0 selects hardware_concurrency() (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size() + 1; }

  // Runs fn(thread_id) once on every pool thread, thread ids 0 (the
  // calling thread) through size()-1. Blocks until all return; writes
  // made by the threads happen-before the return. Exceptions propagate
  // to the caller (first one wins). Serialized per pool.
  void run_on_all(const std::function<void(std::size_t)>& fn);

  // Runs body(chunk, thread_id) for every chunk in [0, num_chunks).
  // Chunks are claimed dynamically from an atomic counter, so threads
  // that finish early keep pulling work. Blocks until every chunk
  // finishes.
  template <typename Body>
  void for_each_chunk(std::size_t num_chunks, Body&& body) {
    if (num_chunks == 0) return;
    if (workers_.empty() || num_chunks == 1) {
      for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) body(chunk, 0);
      return;
    }
    std::atomic<std::size_t> next{0};
    run_on_all([&](std::size_t thread_id) {
      for (;;) {
        const std::size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
        if (chunk >= num_chunks) return;
        body(chunk, thread_id);
      }
    });
  }

  // Runs body(begin, end) over [0, n) split into size()*4 roughly equal
  // ranges claimed dynamically. Blocks until every range finishes.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  // Global pool shared by the library. Sized from the SSSP_THREADS env
  // var (default hardware_concurrency) on first use, reconfigurable via
  // set_global_threads (e.g. from a --threads flag).
  static ThreadPool& global();

  // Replaces the global pool with one of `threads` threads (0 = env /
  // hardware default). Must not race with work on the pool: call at
  // startup or between runs. No-op when the size already matches.
  static void set_global_threads(std::size_t threads);

 private:
  void worker_loop(std::size_t thread_id);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;

  // Single in-flight batch; run_on_all is serialized per pool.
  std::mutex batch_mu_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t done_workers_ = 0;
  std::exception_ptr error_;
  std::uint64_t generation_ = 0;
};

// Convenience free functions over the global pool.
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body);

template <typename Body>
void for_each_chunk(std::size_t num_chunks, Body&& body) {
  ThreadPool::global().for_each_chunk(num_chunks, std::forward<Body>(body));
}

}  // namespace sssp::util
