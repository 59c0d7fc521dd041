#include "serve/server.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "ckpt/checkpoint.hpp"
#include "core/self_tuning.hpp"
#include "fault/failpoint.hpp"
#include "obs/json.hpp"
#include "res/budget.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/near_far.hpp"
#include "util/thread_pool.hpp"
#include "verify/certifier.hpp"

namespace sssp::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Mirrors an event into the global metrics registry when the obs gate
// is on (the server's own counters are always-on regardless).
void bump(const char* name) {
  if (obs::metrics_enabled())
    obs::MetricsRegistry::global().counter(name).add(1);
}

void set_gauge(const char* name, double value) {
  if (obs::metrics_enabled())
    obs::MetricsRegistry::global().gauge(name).set(value);
}

void record_hist(const char* name, double value) {
  if (obs::metrics_enabled())
    obs::MetricsRegistry::global().histogram(name).record(value);
}

// workers == 0 selects one worker per thread of the global pool.
ServerOptions resolve_workers(ServerOptions options) {
  if (options.workers == 0)
    options.workers = util::ThreadPool::global().size();
  return options;
}

}  // namespace

Server::Server(const graph::CsrGraph& graph, ServerOptions options)
    : graph_(graph),
      options_(resolve_workers(std::move(options))),
      fingerprint_(ckpt::graph_fingerprint(graph)),
      queue_(options_.queue_capacity, options_.shed_policy),
      cache_(options_.cache_entries, options_.cache_max_bytes),
      active_controls_(options_.workers) {
  for (auto& slot : active_controls_) slot.store(nullptr);
}

Server::~Server() {
  if (started_.load() && !drained_.load()) drain();
}

void Server::start() {
  if (started_.exchange(true)) return;
  start_time_ = Clock::now();
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

double Server::retry_after_ms_hint() const {
  const double per_query = ewma_run_ms_.load(std::memory_order_relaxed);
  const double workers = static_cast<double>(options_.workers);
  const double depth = static_cast<double>(queue_.depth() + 1);
  return std::clamp(depth * per_query / workers, 10.0, 2000.0);
}

Response Server::make_shed(const Request& request, Status status,
                           std::string error, bool with_retry) {
  Response response;
  response.id = request.id;
  response.status = status;
  response.error = std::move(error);
  if (with_retry) response.retry_after_ms = retry_after_ms_hint();
  return response;
}

void Server::respond_sink(const ResponseSink& sink,
                          const Response& response) {
  responses_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(respond_mu_);
  if (sink) sink(response);
}

void Server::respond(const Ticket& ticket, Response&& response) {
  respond_sink(ticket.respond, response);
}

void Server::submit(std::string_view line, ResponseSink sink) {
  received_.fetch_add(1, std::memory_order_relaxed);
  bump("serve.received");

  ParsedRequest parsed = parse_request(line, graph_.num_vertices());
  if (!parsed.ok) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.invalid");
    Response response;
    response.id = parsed.request.id;
    response.status = Status::kInvalid;
    response.error = parsed.error;
    respond_sink(sink, response);
    return;
  }

  if (parsed.request.cmd == "info") {
    Response response;
    response.id = parsed.request.id;
    response.status = Status::kOk;
    response.has_info = true;
    response.num_vertices = graph_.num_vertices();
    response.num_edges = graph_.num_edges();
    response.graph_fingerprint = fingerprint_;
    response.queue_capacity = queue_.capacity();
    response.workers = options_.workers;
    response.cache_entries = cache_.capacity();
    response.draining = draining();
    respond_sink(sink, response);
    return;
  }

  if (parsed.request.cmd == "health" || parsed.request.cmd == "ready") {
    // Liveness/readiness, served inline. A single-process server is
    // ready exactly while it is started and not draining; health
    // answers as long as submit() runs at all.
    const bool ready = started_.load(std::memory_order_acquire) &&
                       !draining();
    Response response;
    response.id = parsed.request.id;
    response.status = parsed.request.cmd == "ready" && !ready
                          ? Status::kShuttingDown
                          : Status::kOk;
    if (response.status != Status::kOk) {
      response.error = "server draining";
      response.retry_after_ms = retry_after_ms_hint();
    }
    response.has_health = true;
    response.role = "server";
    response.ready = ready;
    response.workers_alive = ready ? options_.workers : 0;
    response.workers_total = options_.workers;
    respond_sink(sink, response);
    return;
  }

  if (draining()) {
    shed_draining_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.shed.draining");
    respond_sink(sink, make_shed(parsed.request, Status::kShuttingDown,
                                 "server draining", true));
    return;
  }

  // Memory-aware admission: project the footprint of every query that
  // could be solving or waiting if this one is admitted, and shed with
  // a retry hint when it exceeds the process memory budget's headroom.
  // Shedding here — before the queue — means overload never turns into
  // an OOM kill mid-solve; the client retries exactly as it does for a
  // full queue. Inert unless a budget limit is configured or the
  // res.serve.admit failpoint is armed.
  {
    const std::uint64_t footprint =
        options_.query_footprint_bytes != 0
            ? options_.query_footprint_bytes
            : 2 * static_cast<std::uint64_t>(graph_.num_vertices()) *
                  (sizeof(graph::Distance) + sizeof(graph::VertexId));
    const std::uint64_t projected =
        footprint * (in_flight_.load(std::memory_order_relaxed) +
                     queue_.depth() + 1);
    if (!res::ResourceBudget::global().check_memory(projected,
                                                    "res.serve.admit")) {
      shed_memory_.fetch_add(1, std::memory_order_relaxed);
      bump("serve.shed.memory");
      respond_sink(sink, make_shed(parsed.request, Status::kOverloaded,
                                   "memory budget exceeded", true));
      return;
    }
  }

  Ticket ticket;
  ticket.request = std::move(parsed.request);
  ticket.admitted_at = Clock::now();
  ticket.respond = std::move(sink);
  double deadline_ms = ticket.request.deadline_ms > 0.0
                           ? ticket.request.deadline_ms
                           : options_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    // Clamp absurd budgets so the time_point addition cannot overflow
    // (mirrors util::RunControl::set_deadline's guard).
    deadline_ms = std::min(deadline_ms, 1e12);
    ticket.deadline =
        ticket.admitted_at +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
  }

  // Injected admission failure: behave exactly as if the queue were
  // full so clients exercise their retry path under any real load.
  const bool forced_full = SSSP_FAILPOINT("serve.queue.full");
  AdmissionQueue::PushOutcome outcome;
  if (!forced_full) outcome = queue_.push(std::move(ticket));
  set_gauge("serve.queue.depth", static_cast<double>(queue_.depth()));
  if (!outcome.admitted) {
    // The ticket was either never pushed (forced_full) or handed back
    // by the queue — either way the response sink is still ours.
    Ticket shed =
        forced_full ? std::move(ticket) : std::move(*outcome.rejected);
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.shed.queue_full");
    respond(shed, make_shed(shed.request, Status::kOverloaded,
                            forced_full ? "queue full (injected)"
                                        : "queue full",
                            true));
    return;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  bump("serve.admitted");
  if (outcome.displaced.has_value()) {
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.shed.queue_full");
    respond(*outcome.displaced,
            make_shed(outcome.displaced->request, Status::kOverloaded,
                      "displaced by newer query (drop-oldest)", true));
  }
}

void Server::worker_loop(std::size_t worker_id) {
  for (;;) {
    std::optional<Ticket> popped = queue_.pop();
    if (!popped.has_value()) return;  // closed and drained
    set_gauge("serve.queue.depth", static_cast<double>(queue_.depth()));
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    execute(*popped, worker_id);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void Server::execute(const Ticket& ticket, std::size_t worker_id) {
  const Clock::time_point exec_start = Clock::now();
  // Recorded once per ticket, a shed one included.
  const double queue_ms = ms_between(ticket.admitted_at, exec_start);
  queue_wait_ms_.record(queue_ms);
  record_hist("serve.queue_wait.ms", queue_ms);
  const Request& request = ticket.request;
  if (exec_start >= ticket.deadline) {
    // Shed before execution: the deadline passed while queued.
    shed_expired_queue_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.shed.expired");
    Response response = make_shed(request, Status::kExpired,
                                  "deadline expired in queue", false);
    response.queue_ms = queue_ms;
    respond(ticket, std::move(response));
    return;
  }

  const std::string algorithm = request.algorithm.empty()
                                    ? options_.default_algorithm
                                    : request.algorithm;
  const bool verify = request.verify >= 0 ? request.verify != 0
                                          : options_.verify_default;
  const double set_point =
      request.set_point > 0.0 ? request.set_point : options_.set_point;
  // Key each algorithm by the options it reads, so queries that differ
  // only in an ignored delta or set-point share one entry.
  const bool reads_delta =
      algorithm == "near-far" || algorithm == "delta-stepping";
  CacheKey key;
  key.fingerprint = fingerprint_;
  key.source = request.source;
  key.options_key = cache_options_key(
      algorithm, reads_delta ? request.delta : 0,
      algorithm == "self-tuning" ? set_point : 0.0);

  const auto answer = [&](Response&& response, double run_ms) {
    response.id = request.id;
    response.queue_ms = queue_ms;
    response.run_ms = run_ms;
    respond(ticket, std::move(response));
  };
  const auto fail = [&](Status status, std::string error) {
    Response response;
    response.status = status;
    response.error = std::move(error);
    answer(std::move(response), ms_between(exec_start, Clock::now()));
  };
  const auto succeed = [&](const CacheEntry& entry, bool cache_hit) {
    const double run_ms = ms_between(exec_start, Clock::now());
    Response response;
    response.status = Status::kOk;
    response.algorithm = algorithm;
    response.reached = entry.reached();
    response.iterations = entry.iterations();
    response.improving_relaxations = entry.improving_relaxations();
    response.dist_checksum = entry.dist_checksum();
    response.cache_hit = cache_hit;
    response.verified = verify;
    response.certified = verify && entry.certified();
    response.targets.reserve(request.targets.size());
    for (const graph::VertexId v : request.targets)
      response.targets.push_back(TargetDistance{v, entry.distance(v)});
    const double total_ms = queue_ms + run_ms;
    latency_ms_.record(total_ms);
    record_hist("serve.latency.ms", total_ms);
    completed_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.completed");
    answer(std::move(response), run_ms);
  };

  util::RunControl control;
  if (ticket.deadline != Clock::time_point::max())
    control.set_deadline(
        std::chrono::duration<double>(ticket.deadline - exec_start).count());
  active_controls_[worker_id].store(&control, std::memory_order_release);
  // Clear the slot on every exit path so drain never pokes a dead
  // control.
  struct SlotGuard {
    std::atomic<util::RunControl*>& slot;
    ~SlotGuard() { slot.store(nullptr, std::memory_order_release); }
  } slot_guard{active_controls_[worker_id]};

  try {
    if (SSSP_FAILPOINT("serve.handler.crash"))
      throw std::runtime_error("injected handler crash");

    // A hit serves an entry certified once, when it was built, after
    // comparing the storage checksum taken then (catching the
    // serve.cache.flip drill), whatever the verify flag. A verified
    // query never takes an entry stored with verification waived.
    const std::shared_ptr<const CacheEntry> hit =
        cache_.lookup(key, /*certified_only=*/verify);
    if (hit != nullptr) {
      bump("serve.cache.hit");
      if (hit->intact()) {
        succeed(*hit, /*cache_hit=*/true);
      } else {
        // Poisoned cache entry: quarantine it so the next query for
        // this key recomputes instead of re-serving the corruption.
        certification_failures_.fetch_add(1, std::memory_order_relaxed);
        bump("serve.certification.failed");
        cache_poisoned_.fetch_add(1, std::memory_order_relaxed);
        bump("serve.cache.poisoned");
        cache_.invalidate(key);
        fail(Status::kError,
             "cached result failed certification: storage checksum "
             "mismatch");
      }
    } else {
      bump("serve.cache.miss");
      const graph::VertexId source = request.source;
      const auto delta = static_cast<graph::Distance>(request.delta);
      algo::SsspResult result;
      if (algorithm == "dijkstra") {
        result = algo::dijkstra(graph_, source);
      } else if (algorithm == "delta-stepping") {
        result = algo::delta_stepping(graph_, source,
                                      {.delta = delta, .control = &control});
      } else if (algorithm == "self-tuning") {
        core::SelfTuningOptions st;
        st.set_point = set_point;
        st.control = &control;
        result = core::self_tuning_sssp(graph_, source, st);
      } else {  // near-far (the validated default)
        result = algo::near_far(graph_, source,
                                {.delta = delta, .control = &control});
      }

      // Certify the fresh result (parents included) and cache it as a
      // slim entry. Only certified (or verification-waived) results
      // enter the cache; the insert-side serve.cache.flip drill poisons
      // *after* the entry's storage checksum is taken.
      const verify::Certificate certificate =
          verify ? verify::certify(graph_, result) : verify::Certificate{};
      if (verify && !certificate.certified) {
        certification_failures_.fetch_add(1, std::memory_order_relaxed);
        bump("serve.certification.failed");
        fail(Status::kError,
             "result failed certification: " + certificate.summary());
      } else {
        const auto entry = std::make_shared<const CacheEntry>(result, verify);
        cache_.insert(key, entry);
        maybe_sample(request.id, source, algorithm, result.iterations);
        succeed(*entry, /*cache_hit=*/false);
      }
    }
    // The retry hint's per-query cost.
    const double run_ms = ms_between(exec_start, Clock::now());
    const double prev = ewma_run_ms_.load(std::memory_order_relaxed);
    ewma_run_ms_.store(0.8 * prev + 0.2 * run_ms, std::memory_order_relaxed);
  } catch (const util::StopRequested& stopped) {
    if (stopped.reason() == util::StopReason::kDeadline) {
      expired_running_.fetch_add(1, std::memory_order_relaxed);
      bump("serve.expired.running");
      fail(Status::kExpired, "deadline expired during execution");
    } else {
      drain_aborted_.fetch_add(1, std::memory_order_relaxed);
      bump("serve.drain.aborted");
      Response response;
      response.status = Status::kShuttingDown;
      response.error = "aborted by drain";
      response.retry_after_ms = 1000.0;
      answer(std::move(response), ms_between(exec_start, Clock::now()));
    }
  } catch (const std::exception& e) {
    handler_errors_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.handler.error");
    fail(Status::kError, e.what());
  }
}

void Server::maybe_sample(
    const std::string& id, graph::VertexId source,
    const std::string& algorithm,
    const std::vector<frontier::IterationStats>& iterations) {
  if (options_.sample_reports == 0) return;
  std::lock_guard<std::mutex> lock(samples_mu_);
  if (samples_.size() >= options_.sample_reports) return;
  SampledReport sample;
  sample.id = id;
  sample.source = source;
  sample.algorithm = algorithm;
  sample.iterations = iterations;
  samples_.push_back(std::move(sample));
}

void Server::drain() {
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  if (drained_.load()) return;
  const Clock::time_point drain_start = Clock::now();
  draining_.store(true, std::memory_order_release);
  drain_requested_ = true;

  const Clock::time_point deadline =
      drain_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            std::max(0.0, options_.drain_ms)));
  bool forced = false;
  for (;;) {
    if (queue_.depth() == 0 && in_flight_.load(std::memory_order_acquire) == 0)
      break;
    if (Clock::now() >= deadline) {
      forced = true;
      // Shed everything still queued with a structured response...
      for (Ticket& ticket : queue_.drain_remaining()) {
        shed_draining_.fetch_add(1, std::memory_order_relaxed);
        bump("serve.shed.draining");
        respond(ticket, make_shed(ticket.request, Status::kShuttingDown,
                                  "shed by drain deadline", true));
      }
      // ...and interrupt in-flight queries through their RunControls
      // (cooperative: dijkstra, the reference, finishes on its own).
      for (auto& slot : active_controls_)
        if (util::RunControl* control =
                slot.load(std::memory_order_acquire);
            control != nullptr)
          control->request_stop(util::StopReason::kInterrupt);
      while (in_flight_.load(std::memory_order_acquire) != 0 ||
             queue_.depth() != 0) {
        for (Ticket& ticket : queue_.drain_remaining()) {
          shed_draining_.fetch_add(1, std::memory_order_relaxed);
          respond(ticket, make_shed(ticket.request, Status::kShuttingDown,
                                    "shed by drain deadline", true));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  queue_.close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  drain_clean_ = !forced;
  drain_seconds_ =
      std::chrono::duration<double>(Clock::now() - drain_start).count();
  drained_.store(true, std::memory_order_release);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.received = received_.load(std::memory_order_relaxed);
  s.invalid = invalid_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_expired_queue =
      shed_expired_queue_.load(std::memory_order_relaxed);
  s.shed_draining = shed_draining_.load(std::memory_order_relaxed);
  s.shed_memory = shed_memory_.load(std::memory_order_relaxed);
  s.expired_running = expired_running_.load(std::memory_order_relaxed);
  s.drain_aborted = drain_aborted_.load(std::memory_order_relaxed);
  s.handler_errors = handler_errors_.load(std::memory_order_relaxed);
  s.certification_failures =
      certification_failures_.load(std::memory_order_relaxed);
  s.cache_poisoned = cache_poisoned_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  s.queue_depth = queue_.depth();
  s.in_flight = in_flight_.load(std::memory_order_acquire);
  if (started_.load())
    s.uptime_seconds =
        std::chrono::duration<double>(Clock::now() - start_time_).count();
  s.qps = s.uptime_seconds > 0.0
              ? static_cast<double>(s.completed) / s.uptime_seconds
              : 0.0;
  s.latency_ms_p50 = latency_ms_.percentile(50.0);
  s.latency_ms_p95 = latency_ms_.percentile(95.0);
  s.latency_ms_p99 = latency_ms_.percentile(99.0);
  s.latency_ms_mean = latency_ms_.mean();
  s.latency_ms_max = latency_ms_.max();
  s.queue_ms_p50 = queue_wait_ms_.percentile(50.0);
  s.queue_ms_p95 = queue_wait_ms_.percentile(95.0);
  s.queue_ms_p99 = queue_wait_ms_.percentile(99.0);
  s.drain_requested = drain_requested_;
  s.drain_clean = drain_clean_;
  s.drain_seconds = drain_seconds_;
  return s;
}

void Server::write_report(std::ostream& out) const {
  const ServerStats s = stats();
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("schema").value("tunesssp.serve.v1");
  w.key("options").begin_object();
  w.key("queue_capacity").value(
      static_cast<std::uint64_t>(options_.queue_capacity));
  w.key("shed_policy").value(to_string(options_.shed_policy));
  w.key("workers").value(static_cast<std::uint64_t>(options_.workers));
  w.key("cache_entries").value(
      static_cast<std::uint64_t>(options_.cache_entries));
  w.key("default_deadline_ms").value(options_.default_deadline_ms);
  w.key("drain_ms").value(options_.drain_ms);
  w.key("verify_default").value(options_.verify_default);
  w.key("default_algorithm").value(options_.default_algorithm);
  w.key("sample_reports").value(
      static_cast<std::uint64_t>(options_.sample_reports));
  w.end_object();
  w.key("graph").begin_object();
  w.key("num_vertices").value(graph_.num_vertices());
  w.key("num_edges").value(graph_.num_edges());
  w.key("fingerprint").value(fingerprint_);
  w.end_object();
  w.key("totals").begin_object();
  w.key("received").value(s.received);
  w.key("invalid").value(s.invalid);
  w.key("admitted").value(s.admitted);
  w.key("completed").value(s.completed);
  w.key("responses").value(s.responses);
  w.key("shed_queue_full").value(s.shed_queue_full);
  w.key("shed_expired_queue").value(s.shed_expired_queue);
  w.key("shed_draining").value(s.shed_draining);
  w.key("shed_memory").value(s.shed_memory);
  w.key("expired_running").value(s.expired_running);
  w.key("drain_aborted").value(s.drain_aborted);
  w.key("handler_errors").value(s.handler_errors);
  w.key("certification_failures").value(s.certification_failures);
  w.key("cache_poisoned").value(s.cache_poisoned);
  w.key("queue_depth").value(static_cast<std::uint64_t>(s.queue_depth));
  w.key("in_flight").value(static_cast<std::uint64_t>(s.in_flight));
  w.end_object();
  w.key("cache").begin_object();
  w.key("hits").value(s.cache.hits);
  w.key("misses").value(s.cache.misses);
  w.key("evictions").value(s.cache.evictions);
  w.key("inserts").value(s.cache.inserts);
  w.key("invalidations").value(s.cache.invalidations);
  w.key("entries").value(static_cast<std::uint64_t>(s.cache.entries));
  w.key("bytes").value(static_cast<std::uint64_t>(s.cache.bytes));
  w.end_object();
  w.key("latency_ms").begin_object();
  w.key("count").value(latency_ms_.count());
  w.key("mean").value(s.latency_ms_mean);
  w.key("max").value(s.latency_ms_max);
  w.key("p50").value(s.latency_ms_p50);
  w.key("p95").value(s.latency_ms_p95);
  w.key("p99").value(s.latency_ms_p99);
  w.end_object();
  w.key("queue_wait_ms").begin_object();
  w.key("count").value(queue_wait_ms_.count());
  w.key("p50").value(s.queue_ms_p50);
  w.key("p95").value(s.queue_ms_p95);
  w.key("p99").value(s.queue_ms_p99);
  w.end_object();
  w.key("uptime_seconds").value(s.uptime_seconds);
  w.key("qps").value(s.qps);
  w.key("drain").begin_object();
  w.key("requested").value(s.drain_requested);
  w.key("clean").value(s.drain_clean);
  w.key("seconds").value(s.drain_seconds);
  w.end_object();
  {
    // Full per-query iteration arrays for the first --sample-reports
    // fresh solves (tunesssp.serve.v1 "sampled_reports").
    std::lock_guard<std::mutex> lock(samples_mu_);
    w.key("sampled_reports").begin_array();
    for (const SampledReport& sample : samples_) {
      w.begin_object();
      w.key("id").value(sample.id);
      w.key("source").value(static_cast<std::uint64_t>(sample.source));
      w.key("algorithm").value(sample.algorithm);
      w.key("iterations").begin_array();
      for (const frontier::IterationStats& it : sample.iterations) {
        w.begin_object();
        w.key("x1").value(it.x1);
        w.key("x2").value(it.x2);
        w.key("x3").value(it.x3);
        w.key("x4").value(it.x4);
        w.key("improving_relaxations").value(it.improving_relaxations);
        w.key("far_queue_size").value(it.far_queue_size);
        w.key("rebalance_items").value(it.rebalance_items);
        w.key("delta").value(it.delta);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }
  w.key("failpoints").begin_array();
  for (const fault::FailpointStatus& fp :
       fault::FailpointRegistry::global().status()) {
    if (fp.mode == fault::Failpoint::Mode::kDisarmed && fp.fires == 0)
      continue;
    w.begin_object();
    w.key("name").value(fp.name);
    w.key("hits").value(fp.hits);
    w.key("fires").value(fp.fires);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace sssp::serve
