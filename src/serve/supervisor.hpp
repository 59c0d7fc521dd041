// Crash-isolated multi-process serving (docs/SERVING.md, "Process
// model & crash isolation").
//
// The single-process Server contains faults to one *response* — but a
// hard crash (SIGSEGV, abort, OOM-kill) still takes down every
// in-flight query, the result cache, and the listening socket with it.
// The Supervisor moves that blast radius down to one *worker process*:
//
//   client transport -> Supervisor (owns the listening socket)
//       -> parse firewall (same protocol.hpp validator)
//       -> per-worker UNIX socketpair, u32-LE framing (socket.hpp)
//       -> worker process: sssp_server --worker-fd N running the
//          ordinary serve::Server loop over the shared mmap'd graph
//          (graph/mmap_cache.hpp — N workers, one physical copy)
//
// Fault handling, in order of escalation:
//   - worker crash: detected via socket EOF + SIGCHLD/waitpid; the
//     dead worker's in-flight queries are re-dispatched to survivors
//     (exactly-one-response preserved) until a per-query retry budget
//     is exhausted, after which the client gets the standard
//     overloaded + retry_after_ms shed;
//   - worker hang (serve.worker.hang): a per-query routing deadline
//     expires and the supervisor SIGKILLs the worker, which turns the
//     hang into the crash path above;
//   - repeated crashes: workers restart with exponential backoff, and
//     a crash-loop circuit breaker (K crashes in a W-second window)
//     stops restarting, sheds everything, and reports tripped() so the
//     tool can drain and exit with kExitCrashLoop (16).
//
// The supervisor answers "health" / "ready" / "info" verbs inline (it
// must stay responsive while the whole fleet is mid-restart) and
// forwards only validated "query" requests, re-keyed under an internal
// routing id because client ids are not unique across connections.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"

namespace sssp::serve {

struct SupervisorOptions {
  // Worker fleet size.
  std::size_t workers = 2;
  // argv of the worker process; the supervisor appends
  // "--worker-fd <fd>" at spawn (fd = the worker's socketpair end).
  std::vector<std::string> worker_command;
  // Bound on queries parked while no worker is ready; overflow sheds
  // with the standard overloaded + retry_after_ms reply.
  std::size_t queue_capacity = 64;
  // Crash/hang re-dispatches allowed per query before it is shed.
  int redispatch_budget = 3;
  // Routing deadline for queries that carry no deadline_ms of their
  // own (0 disables): a worker that holds a query longer than
  // deadline + 2 s of grace is presumed hung and SIGKILLed.
  double query_timeout_ms = 30000.0;
  // Restart backoff: base doubles per consecutive crash of the same
  // slot (reset when the replacement reports ready), capped at 5 s.
  double restart_backoff_ms = 100.0;
  // Crash-loop circuit breaker: this many crashes (any slot) within
  // the window trips it — no further restarts, pending work shed.
  int crash_loop_k = 5;
  double crash_loop_window_s = 30.0;
  // Budget for drain() to see workers exit before SIGTERM/SIGKILL
  // escalation.
  double drain_ms = 5000.0;
};

struct SupervisorStats {
  std::uint64_t received = 0;
  std::uint64_t invalid = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t responses = 0;   // every client response, any status
  std::uint64_t completed = 0;   // ok responses relayed from workers
  std::uint64_t redispatched = 0;
  std::uint64_t shed_retry_exhausted = 0;
  std::uint64_t shed_parked_overflow = 0;
  std::uint64_t shed_draining = 0;
  std::uint64_t worker_crashes = 0;
  std::uint64_t worker_restarts = 0;
  std::uint64_t hang_kills = 0;
  std::uint64_t crashloop_trips = 0;
  std::size_t workers_ready = 0;
  std::size_t workers_total = 0;
  std::size_t pending = 0;  // dispatched + parked, awaiting resolution
  bool tripped = false;
  bool draining = false;
  double uptime_seconds = 0.0;
};

class Supervisor {
 public:
  using ResponseSink = std::function<void(const Response&)>;
  using Clock = std::chrono::steady_clock;

  explicit Supervisor(SupervisorOptions options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // Spawns the fleet and the monitor thread, then blocks until the
  // first worker reports ready (learning the graph shape for the parse
  // firewall). Throws ServeError if no worker comes up within 30 s —
  // the tool maps that to exit 15 like any other startup failure.
  void start();

  // Same contract as Server::submit: exactly one response per request,
  // delivered through `sink` — inline for parse failures, control
  // verbs, and sheds; from a worker reader thread for executed
  // queries. Sink calls are serialized; sinks must not call back in.
  void submit(std::string_view line, ResponseSink sink);

  // Graceful drain: stop admitting, let workers finish in-flight work
  // (EOF on their socketpairs), shed whatever outlasts drain_ms, then
  // reap every child (SIGTERM -> SIGKILL escalation). Idempotent;
  // blocks until the fleet is reaped.
  void drain();

  bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }
  // True once the crash-loop breaker fired; the owner should drain and
  // exit with kExitCrashLoop.
  bool tripped() const noexcept {
    return tripped_.load(std::memory_order_acquire);
  }

  SupervisorStats stats() const;
  std::uint64_t graph_fingerprint() const noexcept {
    return fingerprint_.load(std::memory_order_acquire);
  }

  // Final run report ("tunesssp.supervisor.v1"): options, totals,
  // per-slot restart counts, breaker state.
  void write_report(std::ostream& out) const;

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;               // supervisor end of the socketpair
    std::uint64_t generation = 0;
    bool ready = false;        // ready frame received, accepts queries
    bool reaped = true;        // no live process on this slot
    bool eof = false;          // reader saw EOF/error (death suspected)
    int consecutive_crashes = 0;
    Clock::time_point restart_at{};  // when != {}, restart is scheduled
    std::uint64_t restarts = 0;
    std::thread reader;
    // Serializes frames onto fd (submit vs redispatch vs parked flush).
    std::unique_ptr<std::mutex> write_mu = std::make_unique<std::mutex>();
  };

  struct PendingQuery {
    Request request;        // original client request (original id)
    ResponseSink sink;
    int attempts = 0;       // dispatches so far
    int worker_slot = -1;   // -1 while parked
    std::uint64_t worker_generation = 0;
    Clock::time_point dispatched_at{};
    Clock::time_point route_deadline{};  // {} = no routing deadline
  };

  // A frame write staged under mu_ and executed after unlock — a slow
  // or hung worker must never stall routing for the whole fleet.
  struct Dispatch {
    int slot = -1;
    std::uint64_t generation = 0;
    int fd = -1;
    std::mutex* write_mu = nullptr;
    std::string frame;
    std::string seq_id;
  };

  void spawn_worker(std::size_t slot);
  void reader_loop(std::size_t slot, std::uint64_t generation, int fd);
  void monitor_loop();
  void handle_worker_exit_locked(
      std::size_t slot, bool crashed,
      std::vector<std::pair<Response, ResponseSink>>& out_responses,
      std::vector<Dispatch>& out_dispatches);
  // Dispatches (or parks) one pending query; assumes mu_ held. Sheds
  // via out_responses when the retry budget is gone; stages the worker
  // write via out_dispatches.
  void route_locked(std::string seq_id, PendingQuery&& query,
                    std::vector<std::pair<Response, ResponseSink>>&
                        out_responses,
                    std::vector<Dispatch>& out_dispatches);
  void flush_parked_locked(std::vector<std::pair<Response, ResponseSink>>&
                               out_responses);
  int pick_ready_worker_locked();
  void deliver(const Response& response, const ResponseSink& sink);
  void deliver_all(std::vector<std::pair<Response, ResponseSink>>& responses);
  // Executes staged actions outside mu_: client responses first, then
  // worker writes (failed writes re-route and loop until settled).
  void perform(std::vector<std::pair<Response, ResponseSink>>& responses);
  void perform(std::vector<std::pair<Response, ResponseSink>>& responses,
               std::vector<Dispatch>& dispatches);
  Response make_shed(const std::string& id, Status status, std::string error,
                     bool with_retry) const;
  void trip_breaker_locked(std::vector<std::pair<Response, ResponseSink>>&
                               out_responses);

  const SupervisorOptions options_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<bool> tripped_{false};
  std::atomic<bool> stop_monitor_{false};
  std::mutex drain_mu_;

  // Graph shape learned from the first worker's ready frame; gates the
  // parse firewall and the inline info verb.
  std::atomic<std::uint64_t> num_vertices_{0};
  std::atomic<std::uint64_t> num_edges_{0};
  std::atomic<std::uint64_t> fingerprint_{0};
  std::atomic<std::uint64_t> worker_queue_capacity_{0};
  std::atomic<std::uint64_t> worker_cache_entries_{0};

  mutable std::mutex mu_;  // workers_, pending_, parked_, crash window
  std::condition_variable monitor_cv_;
  std::condition_variable ready_cv_;
  std::vector<Worker> workers_;
  std::map<std::string, PendingQuery> pending_;  // keyed by routing id
  std::deque<std::string> parked_;               // FIFO of routing ids
  // Writes staged by code paths that cannot carry a dispatch vector
  // (flush on worker-ready); drained by the next perform().
  std::vector<Dispatch> pending_dispatches_;
  std::deque<Clock::time_point> crash_times_;
  std::uint64_t next_seq_ = 0;
  std::size_t round_robin_ = 0;
  std::thread monitor_;

  std::mutex respond_mu_;  // serializes client sink invocations
  std::chrono::steady_clock::time_point start_time_{};

  std::atomic<std::uint64_t> received_{0}, invalid_{0}, forwarded_{0},
      responses_{0}, completed_{0}, redispatched_{0},
      shed_retry_exhausted_{0}, shed_parked_overflow_{0}, shed_draining_{0},
      worker_crashes_{0}, worker_restarts_{0}, hang_kills_{0},
      crashloop_trips_{0};
};

}  // namespace sssp::serve
