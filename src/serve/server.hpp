// Overload-safe SSSP query server over a resident graph
// (docs/SERVING.md).
//
// The graph is loaded once, shared and immutable; queries flow through
// an explicit robustness pipeline:
//
//   transport -> parse firewall -> admission queue (bounded, shed
//   policy) -> worker (one ticket at a time, one worker per pool thread
//   by default) -> serial solve with a per-query util::RunControl
//   deadline -> certification -> LRU result cache -> response
//
// Parallelism is across queries: each worker runs one serial solve at
// a time (docs/SERVING.md, "Execution path").
//
// Invariants the chaos harness holds the server to:
//   - every submitted request gets exactly one structured response
//     (no silent drops once a request is admitted or shed);
//   - every `ok` response with verification on passed certification —
//     a cache hit serves an entry the certifier passed when it was
//     built, and only after its storage checksum shows the stored
//     distances unchanged (the `serve.cache.flip` poisoning drill);
//   - a handler crash (`serve.handler.crash`) costs one `error`
//     response, never a worker or a queue slot;
//   - drain (SIGINT/SIGTERM/EOF) stops admissions, finishes or sheds
//     all in-flight work within the drain deadline, and leaves queue
//     depth and in-flight count at zero.
//
// Timing is std::chrono::steady_clock end-to-end (admission stamps,
// deadlines, latency accounting) — wall-clock adjustments must never
// expire a query or skew a percentile.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "frontier/stats.hpp"
#include "graph/csr.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "util/run_control.hpp"

namespace sssp::serve {

struct ServerOptions {
  // Admission queue capacity and overflow policy.
  std::size_t queue_capacity = 64;
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;
  // Queries executing at once, each a serial solve on its own worker
  // thread. 0 selects one worker per thread of util::ThreadPool::global(),
  // resolved when the Server is constructed; options().workers then
  // reads the resolved count.
  std::size_t workers = 0;
  // LRU result-cache capacity in entries (0 disables caching).
  std::size_t cache_entries = 128;
  // Default per-query deadline when the request carries none (0 =
  // unlimited). Measured from admission.
  double default_deadline_ms = 0.0;
  // Graceful-drain budget: queued work not finished within this many
  // milliseconds of the drain request is shed, and in-flight queries
  // are interrupted through their RunControls.
  double drain_ms = 5000.0;
  // Default for requests that do not set "verify".
  bool verify_default = true;
  // Algorithm for requests that do not name one.
  std::string default_algorithm = "near-far";
  // Default self-tuning set-point for requests that do not set one.
  double set_point = 20000.0;
  // Capture the full per-iteration trace of the first N freshly solved
  // queries and publish them in the final report's "sampled_reports"
  // array (0 disables; bounded so a long-running server cannot grow
  // the report without limit).
  std::size_t sample_reports = 0;
  // Byte bound for the result cache on top of cache_entries
  // (0 = unbounded). Evicts from the LRU tail.
  std::size_t cache_max_bytes = 0;
};

struct ServerStats {
  std::uint64_t received = 0;
  std::uint64_t invalid = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;   // ok responses
  std::uint64_t responses = 0;   // every response, any status
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_expired_queue = 0;
  std::uint64_t shed_draining = 0;
  std::uint64_t shed_memory = 0;  // memory-budget admission sheds
  std::uint64_t expired_running = 0;
  std::uint64_t drain_aborted = 0;  // in-flight, interrupted by drain
  std::uint64_t handler_errors = 0;
  std::uint64_t certification_failures = 0;
  std::uint64_t cache_poisoned = 0;
  // Always 0. Kept only for its one reader, perfbench's
  // serve.coalesced_share (perfbench/src/serve_phase.cpp); the next
  // benchmark change deletes the stat and the metric together.
  std::uint64_t batched_queries = 0;
  ResultCache::Stats cache;
  std::size_t queue_depth = 0;
  std::size_t in_flight = 0;
  double uptime_seconds = 0.0;
  double qps = 0.0;  // completed / uptime
  double latency_ms_p50 = 0.0, latency_ms_p95 = 0.0, latency_ms_p99 = 0.0;
  double latency_ms_mean = 0.0, latency_ms_max = 0.0;
  double queue_ms_p50 = 0.0, queue_ms_p95 = 0.0, queue_ms_p99 = 0.0;
  bool drain_requested = false;
  bool drain_clean = false;  // no forced shedding / interruption
  double drain_seconds = 0.0;
};

class Server {
 public:
  using ResponseSink = std::function<void(const Response&)>;

  // The graph must outlive the server and never change (resident,
  // shared, immutable).
  Server(const graph::CsrGraph& graph, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Spawns the worker pool. Call once before submit().
  void start();

  // Feeds one raw request document through the pipeline. The response
  // is delivered through `sink` — inline for parse failures and sheds,
  // from a worker thread for executed queries. Sink calls are
  // serialized by the server; the sink must not call back into submit.
  void submit(std::string_view line, ResponseSink sink);

  // Graceful drain: stop admitting, finish or shed queued + in-flight
  // work within options.drain_ms, then join the workers. Safe to call
  // from a signal-polling loop; idempotent. Blocks until drained.
  void drain();

  bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  ServerStats stats() const;
  std::uint64_t graph_fingerprint() const noexcept { return fingerprint_; }
  const ServerOptions& options() const noexcept { return options_; }

  // Final run report ("tunesssp.serve.v1"): options, totals, latency
  // percentiles, cache and drain state, armed failpoint counters.
  void write_report(std::ostream& out) const;

 private:
  // Pops one ticket at a time and executes it.
  void worker_loop(std::size_t worker_id);
  // The one execution path for a popped query. Records its queue wait,
  // sheds it if its deadline passed in the queue, answers a cache hit
  // after comparing the entry's storage checksum, or solves serially,
  // certifies the fresh result and caches it as a slim entry. Exactly
  // one response on every path — success, certification failure,
  // deadline, drain interruption, or handler crash.
  void execute(const Ticket& ticket, std::size_t worker_id);
  // First N fresh solves capture their full iteration trace for the
  // report's "sampled_reports" section.
  void maybe_sample(const std::string& id, graph::VertexId source,
                    const std::string& algorithm,
                    const std::vector<frontier::IterationStats>& iterations);
  void respond(const Ticket& ticket, Response&& response);
  void respond_sink(const ResponseSink& sink, const Response& response);
  double retry_after_ms_hint() const;
  Response make_shed(const Request& request, Status status,
                     std::string error, bool with_retry);

  const graph::CsrGraph& graph_;
  const ServerOptions options_;
  const std::uint64_t fingerprint_;
  AdmissionQueue queue_;
  ResultCache cache_;
  std::vector<std::thread> workers_;
  // Per-worker RunControl of the query it is executing (null when
  // idle); drain interrupts through these.
  std::vector<std::atomic<util::RunControl*>> active_controls_;
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::mutex drain_mu_;  // serializes drain()
  std::mutex respond_mu_;
  std::chrono::steady_clock::time_point start_time_{};

  // Always-on internal instruments (the final report must not depend
  // on the obs gate); mirrored into the global metrics registry when
  // metrics are enabled.
  obs::Histogram latency_ms_;
  obs::Histogram queue_wait_ms_;
  std::atomic<std::uint64_t> received_{0}, invalid_{0}, admitted_{0},
      completed_{0}, responses_{0}, shed_queue_full_{0},
      shed_expired_queue_{0}, shed_draining_{0}, shed_memory_{0},
      expired_running_{0},
      drain_aborted_{0}, handler_errors_{0}, certification_failures_{0},
      cache_poisoned_{0};
  struct SampledReport {
    std::string id;
    graph::VertexId source = 0;
    std::string algorithm;
    std::vector<frontier::IterationStats> iterations;
  };
  mutable std::mutex samples_mu_;
  std::vector<SampledReport> samples_;
  std::atomic<double> ewma_run_ms_{50.0};
  bool drain_requested_ = false;
  bool drain_clean_ = false;
  double drain_seconds_ = 0.0;
};

}  // namespace sssp::serve
