#include "serve/supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/socket.hpp"

namespace sssp::serve {

namespace {

constexpr const char* kReadyId = "__sup_ready__";
// Grace past a query's routing deadline before its worker is presumed
// hung and SIGKILLed.
constexpr double kHangGraceMs = 2000.0;
// Cap on the doubling restart backoff; also the retry delay after a
// failed spawn.
constexpr double kRestartBackoffMaxMs = 5000.0;
// Budget for start() to see the first worker become ready.
constexpr double kStartTimeoutMs = 30000.0;

void bump(const char* name) {
  if (obs::metrics_enabled())
    obs::MetricsRegistry::global().counter(name).add(1);
}

// Empty SIGCHLD handler installed WITHOUT SA_RESTART: child death must
// interrupt blocking syscalls (EINTR) so the monitor notices promptly;
// the transport loops retry (socket.cpp read_all/write_all).
void on_sigchld(int) {}

void install_child_signals() {
  struct sigaction sa{};
  sa.sa_handler = on_sigchld;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  ::sigaction(SIGCHLD, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // dead-worker writes surface as EPIPE
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options)) {
  if (options_.workers == 0)
    throw ServeError("supervisor requires at least one worker");
  if (options_.worker_command.empty())
    throw ServeError("supervisor requires a worker command");
  workers_.resize(options_.workers);
}

Supervisor::~Supervisor() {
  try {
    drain();
  } catch (...) {
  }
}

Response Supervisor::make_shed(const std::string& id, Status status,
                               std::string error, bool with_retry) const {
  Response response;
  response.id = id;
  response.status = status;
  response.error = std::move(error);
  if (with_retry) {
    std::size_t backlog = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      backlog = parked_.size();
    }
    response.retry_after_ms = 100.0 + 10.0 * static_cast<double>(backlog);
  }
  return response;
}

void Supervisor::deliver(const Response& response, const ResponseSink& sink) {
  responses_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(respond_mu_);
  if (sink) sink(response);
}

void Supervisor::deliver_all(
    std::vector<std::pair<Response, ResponseSink>>& responses) {
  for (auto& [response, sink] : responses) deliver(response, sink);
  responses.clear();
}

// ---------------------------------------------------------------------------
// Worker lifecycle

void Supervisor::spawn_worker(std::size_t slot) {
  // Retire the previous generation's reader first (it has finished or
  // is about to: its fd is closed). Joining outside mu_ — the reader's
  // tail takes mu_ to mark eof.
  std::thread old_reader;
  {
    std::lock_guard<std::mutex> lock(mu_);
    old_reader = std::move(workers_[slot].reader);
  }
  if (old_reader.joinable()) old_reader.join();

  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw ServeError(std::string("socketpair: ") + std::strerror(errno));
  // Supervisor end must not leak into workers; the worker end must
  // survive exec, so it stays inheritable.
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);

  const int devnull = ::open("/dev/null", O_RDONLY);

  // argv built before fork: the child may only make async-signal-safe
  // calls between fork and exec (the supervisor is multi-threaded).
  std::vector<std::string> args = options_.worker_command;
  args.push_back("--worker-fd");
  args.push_back(std::to_string(fds[1]));
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    if (devnull >= 0) ::close(devnull);
    ::close(fds[0]);
    ::close(fds[1]);
    throw ServeError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: async-signal-safe region. stdin from /dev/null, stdout
    // folded into stderr so worker logs cannot corrupt the
    // supervisor's client stream in pipe mode.
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::dup2(STDERR_FILENO, STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(fds[1]);
  if (devnull >= 0) ::close(devnull);

  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Worker& w = workers_[slot];
    w.pid = pid;
    w.fd = fds[0];
    w.generation += 1;
    generation = w.generation;
    w.ready = false;
    w.reaped = false;
    w.eof = false;
    w.restart_at = Clock::time_point{};
    w.reader = std::thread(
        [this, slot, generation, fd = fds[0]] {
          reader_loop(slot, generation, fd);
        });
  }
  monitor_cv_.notify_all();
}

void Supervisor::reader_loop(std::size_t slot, std::uint64_t generation,
                             int fd) {
  std::string payload;
  for (;;) {
    bool got = false;
    try {
      got = read_frame(fd, payload);
    } catch (const ServeError&) {
      break;  // torn frame / read error: treat as worker loss
    }
    if (!got) break;  // EOF: worker exited (or is exiting)

    Response response;
    if (!parse_response(payload, response)) continue;

    if (response.id == kReadyId) {
      std::vector<std::pair<Response, ResponseSink>> out;
      {
        std::lock_guard<std::mutex> lock(mu_);
        Worker& w = workers_[slot];
        if (w.generation != generation || w.reaped) continue;
        w.ready = true;
        // A worker that reached ready ends its crash streak; the
        // crash-loop window still counts fleet-wide crashes.
        w.consecutive_crashes = 0;
        if (response.has_info) {
          num_vertices_.store(response.num_vertices,
                              std::memory_order_release);
          num_edges_.store(response.num_edges, std::memory_order_release);
          fingerprint_.store(response.graph_fingerprint,
                             std::memory_order_release);
          worker_queue_capacity_.store(response.queue_capacity,
                                       std::memory_order_release);
          worker_cache_entries_.store(response.cache_entries,
                                      std::memory_order_release);
        }
        flush_parked_locked(out);
      }
      ready_cv_.notify_all();
      perform(out);
      continue;
    }

    // A query response: resolve the routing entry and restore the
    // client's id. Stale ids (entry already shed or re-routed) are
    // dropped — the client response was or will be produced elsewhere.
    PendingQuery pq;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pending_.find(response.id);
      if (it != pending_.end() &&
          it->second.worker_slot == static_cast<int>(slot) &&
          it->second.worker_generation == generation) {
        pq = std::move(it->second);
        pending_.erase(it);
        found = true;
      }
    }
    if (!found) continue;
    response.id = pq.request.id;
    if (response.status == Status::kOk)
      completed_.fetch_add(1, std::memory_order_relaxed);
    deliver(response, pq.sink);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    Worker& w = workers_[slot];
    if (w.generation == generation) {
      w.eof = true;
      w.ready = false;
    }
  }
  monitor_cv_.notify_all();
}

void Supervisor::handle_worker_exit_locked(
    std::size_t slot, bool crashed,
    std::vector<std::pair<Response, ResponseSink>>& out_responses,
    std::vector<Dispatch>& out_dispatches) {
  Worker& w = workers_[slot];
  w.reaped = true;
  w.ready = false;
  w.eof = true;
  if (w.fd >= 0) ::close(w.fd);
  w.fd = -1;
  w.pid = -1;

  if (crashed) {
    worker_crashes_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.supervisor.worker_crashes");
    const auto now = Clock::now();
    crash_times_.push_back(now);
    const auto window = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(options_.crash_loop_window_s));
    while (!crash_times_.empty() && crash_times_.front() + window < now)
      crash_times_.pop_front();
    w.consecutive_crashes += 1;

    if (!tripped_.load(std::memory_order_acquire) &&
        static_cast<int>(crash_times_.size()) >= options_.crash_loop_k) {
      trip_breaker_locked(out_responses);
    } else if (!tripped_.load(std::memory_order_acquire) &&
               !draining_.load(std::memory_order_acquire)) {
      const double backoff = std::min(
          options_.restart_backoff_ms *
              static_cast<double>(1ULL << std::min(w.consecutive_crashes - 1,
                                                   20)),
          kRestartBackoffMaxMs);
      w.restart_at = now + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   backoff));
    }
  }

  // Re-route the dead worker's in-flight queries: exactly one response
  // per query, so each entry either reaches a survivor or is shed.
  const std::uint64_t generation = w.generation;
  std::vector<std::pair<std::string, PendingQuery>> orphans;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.worker_slot == static_cast<int>(slot) &&
        it->second.worker_generation == generation) {
      orphans.emplace_back(it->first, std::move(it->second));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [seq_id, pq] : orphans) {
    if (crashed) {
      redispatched_.fetch_add(1, std::memory_order_relaxed);
      bump("serve.supervisor.redispatched");
    }
    route_locked(std::move(seq_id), std::move(pq), out_responses,
                 out_dispatches);
  }
}

void Supervisor::trip_breaker_locked(
    std::vector<std::pair<Response, ResponseSink>>& out_responses) {
  tripped_.store(true, std::memory_order_release);
  crashloop_trips_.fetch_add(1, std::memory_order_relaxed);
  bump("serve.supervisor.crashloop_trips");
  // No further restarts; shed every parked query now (dispatched ones
  // are shed as their workers die or via route_locked's tripped check).
  for (Worker& w : workers_) w.restart_at = Clock::time_point{};
  for (const std::string& seq_id : parked_) {
    auto it = pending_.find(seq_id);
    if (it == pending_.end()) continue;
    shed_retry_exhausted_.fetch_add(1, std::memory_order_relaxed);
    Response shed;
    shed.id = it->second.request.id;
    shed.status = Status::kOverloaded;
    shed.error = "crash-loop breaker tripped";
    shed.retry_after_ms = 1000.0;
    out_responses.emplace_back(std::move(shed), std::move(it->second.sink));
    pending_.erase(it);
  }
  parked_.clear();
}

// ---------------------------------------------------------------------------
// Routing

int Supervisor::pick_ready_worker_locked() {
  const std::size_t n = workers_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = (round_robin_ + i) % n;
    const Worker& w = workers_[slot];
    if (w.ready && !w.reaped && !w.eof) {
      round_robin_ = slot + 1;
      return static_cast<int>(slot);
    }
  }
  return -1;
}

void Supervisor::route_locked(std::string seq_id, PendingQuery&& query,
                              std::vector<std::pair<Response, ResponseSink>>&
                                  out_responses,
                              std::vector<Dispatch>& out_dispatches) {
  if (draining_.load(std::memory_order_acquire)) {
    shed_draining_.fetch_add(1, std::memory_order_relaxed);
    Response shed;
    shed.id = query.request.id;
    shed.status = Status::kShuttingDown;
    shed.error = "supervisor draining";
    shed.retry_after_ms = 1000.0;
    out_responses.emplace_back(std::move(shed), std::move(query.sink));
    return;
  }
  if (tripped_.load(std::memory_order_acquire) ||
      query.attempts > options_.redispatch_budget) {
    shed_retry_exhausted_.fetch_add(1, std::memory_order_relaxed);
    Response shed;
    shed.id = query.request.id;
    shed.status = Status::kOverloaded;
    shed.error = tripped_.load(std::memory_order_acquire)
                     ? "crash-loop breaker tripped"
                     : "worker crashed; retry budget exhausted";
    shed.retry_after_ms = 1000.0;
    out_responses.emplace_back(std::move(shed), std::move(query.sink));
    return;
  }

  const int slot = pick_ready_worker_locked();
  if (slot < 0) {
    // No live worker right now (fleet mid-restart): park, bounded.
    if (parked_.size() >= options_.queue_capacity) {
      shed_parked_overflow_.fetch_add(1, std::memory_order_relaxed);
      Response shed;
      shed.id = query.request.id;
      shed.status = Status::kOverloaded;
      shed.error = "no live worker and parked queue full";
      shed.retry_after_ms =
          100.0 + 10.0 * static_cast<double>(parked_.size());
      out_responses.emplace_back(std::move(shed), std::move(query.sink));
      return;
    }
    query.worker_slot = -1;
    parked_.push_back(seq_id);
    pending_.emplace(std::move(seq_id), std::move(query));
    return;
  }

  Worker& w = workers_[slot];
  query.attempts += 1;
  query.worker_slot = slot;
  query.worker_generation = w.generation;
  query.dispatched_at = Clock::now();
  const double budget_ms = query.request.deadline_ms > 0.0
                               ? query.request.deadline_ms
                               : options_.query_timeout_ms;
  query.route_deadline =
      budget_ms > 0.0
          ? query.dispatched_at +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        std::min(budget_ms, 1e12) + kHangGraceMs))
          : Clock::time_point{};

  Request forwarded = query.request;
  forwarded.id = seq_id;
  Dispatch dispatch;
  dispatch.slot = slot;
  dispatch.generation = w.generation;
  dispatch.fd = w.fd;
  dispatch.write_mu = w.write_mu.get();
  dispatch.frame = format_request(forwarded);
  dispatch.seq_id = seq_id;
  out_dispatches.push_back(std::move(dispatch));
  pending_.emplace(std::move(seq_id), std::move(query));
}

void Supervisor::flush_parked_locked(
    std::vector<std::pair<Response, ResponseSink>>& out_responses) {
  // Re-route everything parked now that a worker is ready; entries
  // that cannot be placed simply park again (FIFO preserved).
  std::vector<Dispatch> dispatches;
  std::deque<std::string> parked = std::move(parked_);
  parked_.clear();
  for (std::string& seq_id : parked) {
    auto it = pending_.find(seq_id);
    if (it == pending_.end()) continue;
    PendingQuery pq = std::move(it->second);
    pending_.erase(it);
    route_locked(std::move(seq_id), std::move(pq), out_responses,
                 dispatches);
  }
  pending_dispatches_.insert(pending_dispatches_.end(),
                             std::make_move_iterator(dispatches.begin()),
                             std::make_move_iterator(dispatches.end()));
}

void Supervisor::perform(
    std::vector<std::pair<Response, ResponseSink>>& responses) {
  std::vector<Dispatch> dispatches;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dispatches = std::move(pending_dispatches_);
    pending_dispatches_.clear();
  }
  perform(responses, dispatches);
}

void Supervisor::perform(
    std::vector<std::pair<Response, ResponseSink>>& responses,
    std::vector<Dispatch>& dispatches) {
  deliver_all(responses);
  // Writes happen outside mu_ (a slow or hung worker must not stall
  // routing); a failed write re-routes the query, looping until every
  // action settles.
  while (!dispatches.empty()) {
    std::vector<Dispatch> batch = std::move(dispatches);
    dispatches.clear();
    for (Dispatch& d : batch) {
      bool ok = true;
      try {
        std::lock_guard<std::mutex> frame_lock(*d.write_mu);
        write_frame(d.fd, d.frame);
      } catch (const ServeError&) {
        ok = false;
      }
      if (ok) {
        forwarded_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // The worker is gone (EPIPE) or its pipe broke: mark the slot
      // suspect and put the query back through routing.
      std::vector<std::pair<Response, ResponseSink>> more_responses;
      {
        std::lock_guard<std::mutex> lock(mu_);
        Worker& w = workers_[static_cast<std::size_t>(d.slot)];
        if (w.generation == d.generation) {
          w.ready = false;
          w.eof = true;
        }
        auto it = pending_.find(d.seq_id);
        if (it != pending_.end() &&
            it->second.worker_slot == d.slot &&
            it->second.worker_generation == d.generation) {
          PendingQuery pq = std::move(it->second);
          pending_.erase(it);
          route_locked(d.seq_id, std::move(pq), more_responses, dispatches);
        }
      }
      monitor_cv_.notify_all();
      deliver_all(more_responses);
    }
  }
}

// ---------------------------------------------------------------------------
// Monitor

void Supervisor::monitor_loop() {
  while (!stop_monitor_.load(std::memory_order_acquire)) {
    std::vector<std::pair<Response, ResponseSink>> responses;
    std::vector<Dispatch> dispatches;
    std::vector<std::size_t> to_spawn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      monitor_cv_.wait_for(lock, std::chrono::milliseconds(100));
      const auto now = Clock::now();

      for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
        Worker& w = workers_[slot];
        // Reap. Any exit the supervisor did not ask for is a crash —
        // including a clean exit(0), since nobody told it to drain.
        if (!w.reaped && w.pid > 0) {
          int status = 0;
          const pid_t got = ::waitpid(w.pid, &status, WNOHANG);
          if (got == w.pid)
            handle_worker_exit_locked(
                slot, !draining_.load(std::memory_order_acquire), responses,
                dispatches);
        }
        // Due restarts (outside mu_: fork + thread creation).
        if (w.reaped && w.restart_at != Clock::time_point{} &&
            now >= w.restart_at &&
            !tripped_.load(std::memory_order_acquire) &&
            !draining_.load(std::memory_order_acquire)) {
          w.restart_at = Clock::time_point{};
          to_spawn.push_back(slot);
        }
      }

      // Hang escalation: a query past its routing deadline means the
      // worker is stuck (serve.worker.hang) — SIGKILL turns it into
      // the ordinary crash path, which re-dispatches the query.
      for (auto& [seq_id, pq] : pending_) {
        if (pq.worker_slot < 0 ||
            pq.route_deadline == Clock::time_point{} ||
            now <= pq.route_deadline)
          continue;
        Worker& w = workers_[static_cast<std::size_t>(pq.worker_slot)];
        if (w.generation != pq.worker_generation || w.reaped || w.pid <= 0)
          continue;
        hang_kills_.fetch_add(1, std::memory_order_relaxed);
        bump("serve.supervisor.hang_kills");
        ::kill(w.pid, SIGKILL);
        pq.route_deadline = Clock::time_point{};  // one kill per expiry
      }
    }
    perform(responses, dispatches);
    for (std::size_t slot : to_spawn) {
      try {
        spawn_worker(slot);
        worker_restarts_.fetch_add(1, std::memory_order_relaxed);
        bump("serve.supervisor.worker_restarts");
        {
          std::lock_guard<std::mutex> lock(mu_);
          workers_[slot].restarts += 1;
        }
      } catch (const ServeError&) {
        // Spawn failure (fd/pid exhaustion): retry after max backoff.
        std::lock_guard<std::mutex> lock(mu_);
        workers_[slot].restart_at =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   kRestartBackoffMaxMs));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Public surface

void Supervisor::start() {
  if (started_.exchange(true)) return;
  install_child_signals();
  start_time_ = Clock::now();
  for (std::size_t slot = 0; slot < workers_.size(); ++slot)
    spawn_worker(slot);
  monitor_ = std::thread([this] { monitor_loop(); });

  // Serving before the first ready frame would reject every query (the
  // parse firewall needs num_vertices), so startup blocks here.
  std::unique_lock<std::mutex> lock(mu_);
  const bool up = ready_cv_.wait_for(
      lock,
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(kStartTimeoutMs)),
      [this] {
        return std::any_of(workers_.begin(), workers_.end(),
                           [](const Worker& w) { return w.ready; });
      });
  if (!up) {
    lock.unlock();
    drain();
    throw ServeError("no worker became ready within " +
                     std::to_string(kStartTimeoutMs) + " ms");
  }
}

void Supervisor::submit(std::string_view line, ResponseSink sink) {
  received_.fetch_add(1, std::memory_order_relaxed);
  bump("serve.supervisor.received");

  ParsedRequest parsed =
      parse_request(line, num_vertices_.load(std::memory_order_acquire));
  if (!parsed.ok) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    Response response;
    response.id = parsed.request.id;
    response.status = Status::kInvalid;
    response.error = parsed.error;
    deliver(response, sink);
    return;
  }

  const std::string& cmd = parsed.request.cmd;
  if (cmd == "health" || cmd == "ready") {
    std::size_t alive = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const Worker& w : workers_)
        if (w.ready && !w.reaped && !w.eof) ++alive;
    }
    const bool ready = alive > 0 && !draining() &&
                       !tripped_.load(std::memory_order_acquire);
    Response response;
    response.id = parsed.request.id;
    response.status =
        cmd == "ready" && !ready ? Status::kShuttingDown : Status::kOk;
    if (response.status != Status::kOk) {
      response.error = "supervisor not ready";
      response.retry_after_ms = 500.0;
    }
    response.has_health = true;
    response.role = "supervisor";
    response.ready = ready;
    response.workers_alive = alive;
    response.workers_total = workers_.size();
    response.restarts = worker_restarts_.load(std::memory_order_relaxed);
    deliver(response, sink);
    return;
  }

  if (cmd == "info") {
    // Served from the shape cached off the ready frame: info must work
    // while the whole fleet is mid-restart.
    Response response;
    response.id = parsed.request.id;
    response.status = Status::kOk;
    response.has_info = true;
    response.num_vertices = num_vertices_.load(std::memory_order_acquire);
    response.num_edges = num_edges_.load(std::memory_order_acquire);
    response.graph_fingerprint =
        fingerprint_.load(std::memory_order_acquire);
    response.queue_capacity =
        worker_queue_capacity_.load(std::memory_order_acquire);
    response.workers = workers_.size();
    response.cache_entries =
        worker_cache_entries_.load(std::memory_order_acquire);
    response.draining = draining();
    deliver(response, sink);
    return;
  }

  if (draining()) {
    shed_draining_.fetch_add(1, std::memory_order_relaxed);
    deliver(make_shed(parsed.request.id, Status::kShuttingDown,
                      "supervisor draining", true),
            sink);
    return;
  }

  std::vector<std::pair<Response, ResponseSink>> responses;
  std::vector<Dispatch> dispatches;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::string seq_id = "s" + std::to_string(next_seq_++);
    PendingQuery query;
    query.request = std::move(parsed.request);
    query.sink = std::move(sink);
    route_locked(std::move(seq_id), std::move(query), responses, dispatches);
  }
  perform(responses, dispatches);
}

void Supervisor::drain() {
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  if (drained_.load(std::memory_order_acquire)) return;
  draining_.store(true, std::memory_order_release);
  const auto drain_start = Clock::now();

  // Parked queries can never run now — shed them immediately. EOF on
  // each worker socket asks the worker's own Server to drain: it
  // finishes in-flight queries, flushes responses, and exits 0.
  std::vector<std::pair<Response, ResponseSink>> responses;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& seq_id : parked_) {
      auto it = pending_.find(seq_id);
      if (it == pending_.end()) continue;
      shed_draining_.fetch_add(1, std::memory_order_relaxed);
      Response shed;
      shed.id = it->second.request.id;
      shed.status = Status::kShuttingDown;
      shed.error = "supervisor draining";
      shed.retry_after_ms = 1000.0;
      responses.emplace_back(std::move(shed), std::move(it->second.sink));
      pending_.erase(it);
    }
    parked_.clear();
    for (Worker& w : workers_) {
      w.restart_at = Clock::time_point{};
      if (!w.reaped && w.fd >= 0) ::shutdown(w.fd, SHUT_WR);
    }
  }
  deliver_all(responses);

  // Wait for in-flight queries to resolve and workers to exit; the
  // monitor keeps reaping throughout. Escalate past the budget.
  bool sigtermed = false, sigkilled = false;
  for (;;) {
    bool all_reaped = true;
    bool pending_empty = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const Worker& w : workers_)
        if (!w.reaped) all_reaped = false;
      pending_empty = pending_.empty();
    }
    if (all_reaped && pending_empty) break;
    const double waited = ms_since(drain_start);
    if (!sigtermed && waited > options_.drain_ms) {
      sigtermed = true;
      std::lock_guard<std::mutex> lock(mu_);
      for (Worker& w : workers_)
        if (!w.reaped && w.pid > 0) ::kill(w.pid, SIGTERM);
    }
    if (!sigkilled && waited > options_.drain_ms + 2000.0) {
      sigkilled = true;
      std::lock_guard<std::mutex> lock(mu_);
      for (Worker& w : workers_)
        if (!w.reaped && w.pid > 0) ::kill(w.pid, SIGKILL);
    }
    if (all_reaped && !pending_empty) {
      // Workers are gone but entries remain (e.g. monitor stopped
      // between reap and re-route): shed them now.
      std::vector<std::pair<Response, ResponseSink>> late;
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& [seq_id, pq] : pending_) {
          shed_draining_.fetch_add(1, std::memory_order_relaxed);
          Response shed;
          shed.id = pq.request.id;
          shed.status = Status::kShuttingDown;
          shed.error = "supervisor draining";
          shed.retry_after_ms = 1000.0;
          late.emplace_back(std::move(shed), std::move(pq.sink));
        }
        pending_.clear();
      }
      deliver_all(late);
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Stop the monitor, then retire readers (closing fds forces EOF).
  if (started_.load(std::memory_order_acquire)) {
    stop_monitor_.store(true, std::memory_order_release);
    monitor_cv_.notify_all();
    if (monitor_.joinable()) monitor_.join();
  }
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Worker& w : workers_) {
      if (w.fd >= 0) ::close(w.fd);
      w.fd = -1;
      if (w.reader.joinable()) readers.push_back(std::move(w.reader));
    }
  }
  for (std::thread& t : readers) t.join();
  // Belt and braces: no child of ours may outlive drain.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Worker& w : workers_) {
      if (!w.reaped && w.pid > 0) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, nullptr, 0);
        w.reaped = true;
        w.pid = -1;
      }
    }
  }
  drained_.store(true, std::memory_order_release);
}

SupervisorStats Supervisor::stats() const {
  SupervisorStats s;
  s.received = received_.load(std::memory_order_relaxed);
  s.invalid = invalid_.load(std::memory_order_relaxed);
  s.forwarded = forwarded_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.redispatched = redispatched_.load(std::memory_order_relaxed);
  s.shed_retry_exhausted =
      shed_retry_exhausted_.load(std::memory_order_relaxed);
  s.shed_parked_overflow =
      shed_parked_overflow_.load(std::memory_order_relaxed);
  s.shed_draining = shed_draining_.load(std::memory_order_relaxed);
  s.worker_crashes = worker_crashes_.load(std::memory_order_relaxed);
  s.worker_restarts = worker_restarts_.load(std::memory_order_relaxed);
  s.hang_kills = hang_kills_.load(std::memory_order_relaxed);
  s.crashloop_trips = crashloop_trips_.load(std::memory_order_relaxed);
  s.workers_total = workers_.size();
  s.tripped = tripped_.load(std::memory_order_acquire);
  s.draining = draining_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Worker& w : workers_)
      if (w.ready && !w.reaped && !w.eof) ++s.workers_ready;
    s.pending = pending_.size();
  }
  if (start_time_ != Clock::time_point{})
    s.uptime_seconds = ms_since(start_time_) / 1000.0;
  return s;
}

void Supervisor::write_report(std::ostream& out) const {
  const SupervisorStats s = stats();
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("schema").value("tunesssp.supervisor.v1");
  w.key("options").begin_object();
  w.key("workers").value(static_cast<std::uint64_t>(options_.workers));
  w.key("queue_capacity").value(
      static_cast<std::uint64_t>(options_.queue_capacity));
  w.key("redispatch_budget").value(
      static_cast<std::int64_t>(options_.redispatch_budget));
  w.key("query_timeout_ms").value(options_.query_timeout_ms);
  w.key("restart_backoff_ms").value(options_.restart_backoff_ms);
  w.key("restart_backoff_max_ms").value(kRestartBackoffMaxMs);
  w.key("crash_loop_k").value(
      static_cast<std::int64_t>(options_.crash_loop_k));
  w.key("crash_loop_window_s").value(options_.crash_loop_window_s);
  w.key("drain_ms").value(options_.drain_ms);
  w.end_object();
  w.key("totals").begin_object();
  w.key("received").value(s.received);
  w.key("invalid").value(s.invalid);
  w.key("forwarded").value(s.forwarded);
  w.key("responses").value(s.responses);
  w.key("completed").value(s.completed);
  w.key("serve.supervisor.redispatched").value(s.redispatched);
  w.key("serve.supervisor.worker_restarts").value(s.worker_restarts);
  w.key("serve.supervisor.crashloop_trips").value(s.crashloop_trips);
  w.key("worker_crashes").value(s.worker_crashes);
  w.key("hang_kills").value(s.hang_kills);
  w.key("shed_retry_exhausted").value(s.shed_retry_exhausted);
  w.key("shed_parked_overflow").value(s.shed_parked_overflow);
  w.key("shed_draining").value(s.shed_draining);
  w.key("pending").value(static_cast<std::uint64_t>(s.pending));
  w.end_object();
  w.key("workers").begin_array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      const Worker& w2 = workers_[slot];
      w.begin_object();
      w.key("slot").value(static_cast<std::uint64_t>(slot));
      w.key("generation").value(w2.generation);
      w.key("ready").value(w2.ready && !w2.reaped && !w2.eof);
      w.key("restarts").value(w2.restarts);
      w.key("consecutive_crashes").value(
          static_cast<std::int64_t>(w2.consecutive_crashes));
      w.end_object();
    }
  }
  w.end_array();
  w.key("breaker").begin_object();
  w.key("tripped").value(s.tripped);
  w.key("trips").value(s.crashloop_trips);
  w.end_object();
  w.key("uptime_seconds").value(s.uptime_seconds);
  w.key("draining").value(s.draining);
  w.end_object();
}

}  // namespace sssp::serve
