#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

namespace sssp::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // The calling thread participates as thread 0, so spawn one fewer.
  for (std::size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t thread_id) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
      fn = fn_;
    }
    std::exception_ptr err;
    try {
      (*fn)(thread_id);
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (err && !error_) error_ = err;
      ++done_workers_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::run_on_all(const std::function<void(std::size_t)>& fn) {
  if (workers_.empty()) {
    fn(0);
    return;
  }
  std::lock_guard<std::mutex> batch_lock(batch_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    done_workers_ = 0;
    error_ = nullptr;
    ++generation_;
  }
  cv_.notify_all();
  std::exception_ptr caller_err;
  try {
    fn(0);
  } catch (...) {
    caller_err = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return done_workers_ == workers_.size(); });
  std::exception_ptr err = caller_err ? caller_err : error_;
  error_ = nullptr;
  fn_ = nullptr;
  if (err) {
    lock.unlock();
    std::rethrow_exception(err);
  }
}

namespace {

struct GlobalPoolState {
  std::mutex mu;
  std::unique_ptr<ThreadPool> pool;
};

GlobalPoolState& global_pool_state() {
  static GlobalPoolState state;
  return state;
}

std::size_t env_threads() {
  if (const char* env = std::getenv("SSSP_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  GlobalPoolState& state = global_pool_state();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.pool) state.pool = std::make_unique<ThreadPool>(env_threads());
  return *state.pool;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  const std::size_t resolved =
      threads != 0 ? threads
                   : (env_threads() != 0
                          ? env_threads()
                          : std::max<std::size_t>(
                                1, std::thread::hardware_concurrency()));
  GlobalPoolState& state = global_pool_state();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.pool && state.pool->size() == resolved) return;
  state.pool.reset();  // join the old workers before starting new ones
  state.pool = std::make_unique<ThreadPool>(resolved);
}

}  // namespace sssp::util
