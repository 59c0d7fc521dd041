#include "serve/server.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>
#include <stdexcept>

#include "ckpt/checkpoint.hpp"
#include "core/self_tuning.hpp"
#include "fault/failpoint.hpp"
#include "obs/json.hpp"
#include "res/budget.hpp"
#include "sssp/batch_engine.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
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

}  // namespace

Server::Server(const graph::CsrGraph& graph, ServerOptions options)
    : graph_(graph),
      options_(std::move(options)),
      fingerprint_(ckpt::graph_fingerprint(graph)),
      queue_(options_.queue_capacity, options_.shed_policy),
      cache_(options_.cache_entries, options_.cache_max_bytes),
      active_controls_(std::max<std::size_t>(1, options_.workers)) {
  for (auto& slot : active_controls_) slot.store(nullptr);
}

Server::~Server() {
  if (started_.load() && !drained_.load()) drain();
}

void Server::start() {
  if (started_.exchange(true)) return;
  start_time_ = Clock::now();
  const std::size_t workers = std::max<std::size_t>(1, options_.workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

double Server::retry_after_ms_hint() const {
  const double per_query = ewma_run_ms_.load(std::memory_order_relaxed);
  const double workers =
      static_cast<double>(std::max<std::size_t>(1, options_.workers));
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
    response.workers = std::max<std::size_t>(1, options_.workers);
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
    response.workers_alive = ready ? std::max<std::size_t>(1, options_.workers)
                                   : 0;
    response.workers_total = std::max<std::size_t>(1, options_.workers);
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

bool Server::batchable(const Ticket& ticket) const {
  if (ticket.request.cmd != "query") return false;
  // Deadline-free only: a coalesced run has no per-lane interruption,
  // so a tight deadline must not be hostage to its batchmates.
  if (ticket.deadline != Clock::time_point::max()) return false;
  const std::string& algorithm = ticket.request.algorithm.empty()
                                     ? options_.default_algorithm
                                     : ticket.request.algorithm;
  return algorithm == "near-far";
}

void Server::worker_loop(std::size_t worker_id) {
  for (;;) {
    std::optional<Ticket> popped = queue_.pop();
    if (!popped.has_value()) return;  // closed and drained

    // Query coalescing: drain queued queries compatible with the one
    // just popped (same effective algorithm/delta/verify, deadline-free)
    // into the same execution. The matched tickets left the queue
    // exactly as a pop would, so in_flight_ covers the whole batch
    // before any of it executes — drain sees them as running work, not
    // lost slots.
    std::vector<Ticket> batch;
    batch.push_back(std::move(*popped));
    if (options_.batch_max > 1 && batchable(batch.front())) {
      const Request& head = batch.front().request;
      const int head_verify = head.verify >= 0
                                  ? head.verify
                                  : (options_.verify_default ? 1 : 0);
      std::vector<Ticket> matched = queue_.pop_matching(
          [&](const Ticket& other) {
            if (!batchable(other)) return false;
            if (other.request.delta != head.delta) return false;
            const int other_verify =
                other.request.verify >= 0
                    ? other.request.verify
                    : (options_.verify_default ? 1 : 0);
            return other_verify == head_verify;
          },
          std::min(options_.batch_max - 1, algo::kMaxBatchLanes - 1));
      std::move(matched.begin(), matched.end(), std::back_inserter(batch));
    }
    set_gauge("serve.queue.depth", static_cast<double>(queue_.depth()));

    in_flight_.fetch_add(batch.size(), std::memory_order_acq_rel);
    execute(batch, worker_id);
    in_flight_.fetch_sub(batch.size(), std::memory_order_acq_rel);
  }
}

void Server::execute(std::vector<Ticket>& batch, std::size_t worker_id) {
  const Clock::time_point exec_start = Clock::now();
  // Every ticket's queue wait is recorded once, coalesced ones and a
  // shed one included.
  std::vector<double> queue_ms(batch.size(), 0.0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    queue_ms[i] = ms_between(batch[i].admitted_at, exec_start);
    queue_wait_ms_.record(queue_ms[i]);
    record_hist("serve.queue_wait.ms", queue_ms[i]);
  }
  // Only a lone ticket can carry a deadline: batchable() coalesces
  // deadline-free tickets only.
  const Clock::time_point deadline = batch.front().deadline;
  if (exec_start >= deadline) {
    // Shed before execution: the deadline passed while queued.
    shed_expired_queue_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.shed.expired");
    Response response = make_shed(batch.front().request, Status::kExpired,
                                  "deadline expired in queue", false);
    response.queue_ms = queue_ms.front();
    respond(batch.front(), std::move(response));
    return;
  }
  if (batch.size() > 1) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_queries_.fetch_add(batch.size(), std::memory_order_relaxed);
    bump("serve.batch.runs");
    if (obs::metrics_enabled())
      obs::MetricsRegistry::global().counter("serve.batch.queries")
          .add(batch.size());
  }

  // Every ticket shares the head's effective algorithm, delta and
  // verify flag (worker_loop's compatibility predicate).
  const Request& head = batch.front().request;
  const std::string algorithm = head.algorithm.empty()
                                    ? options_.default_algorithm
                                    : head.algorithm;
  const bool verify = head.verify >= 0 ? head.verify != 0
                                       : options_.verify_default;
  const double set_point =
      head.set_point > 0.0 ? head.set_point : options_.set_point;
  // Key each algorithm by the options it reads, so queries that differ
  // only in an ignored delta or set-point share one entry.
  const bool reads_delta =
      algorithm == "near-far" || algorithm == "delta-stepping";
  const std::string options_key = cache_options_key(
      algorithm, reads_delta ? head.delta : 0,
      algorithm == "self-tuning" ? set_point : 0.0);
  const auto key_for = [&](graph::VertexId source) {
    CacheKey key;
    key.fingerprint = fingerprint_;
    key.source = source;
    key.options_key = options_key;
    return key;
  };

  // One response per ticket, on every path: `responded` tracks which
  // tickets have been answered so the exception paths below can sweep
  // up exactly the remainder.
  std::vector<bool> responded(batch.size(), false);
  const auto answer = [&](std::size_t i, Response&& response,
                          double run_ms) {
    response.id = batch[i].request.id;
    response.queue_ms = queue_ms[i];
    response.run_ms = run_ms;
    responded[i] = true;
    respond(batch[i], std::move(response));
  };
  const auto fail = [&](std::size_t i, Status status, std::string error,
                        double run_ms) {
    Response response;
    response.status = status;
    response.error = std::move(error);
    answer(i, std::move(response), run_ms);
  };
  const auto succeed = [&](std::size_t i, const CacheEntry& entry,
                           bool cache_hit, double run_ms) {
    const Request& request = batch[i].request;
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
    const double total_ms = queue_ms[i] + run_ms;
    latency_ms_.record(total_ms);
    record_hist("serve.latency.ms", total_ms);
    completed_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.completed");
    answer(i, std::move(response), run_ms);
  };

  util::RunControl control;
  if (deadline != Clock::time_point::max())
    control.set_deadline(
        std::chrono::duration<double>(deadline - exec_start).count());
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

    // Cache hits are answered up front. Each entry was certified once,
    // when it was built; a hit compares the storage checksum taken then
    // (catching the serve.cache.flip drill), whatever the verify flag.
    // A verified query never takes an entry stored with verification
    // waived. The misses dedup by source.
    std::vector<graph::VertexId> sources;
    std::vector<std::size_t> lane_of(batch.size(), 0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const graph::VertexId source = batch[i].request.source;
      const std::shared_ptr<const CacheEntry> hit =
          cache_.lookup(key_for(source), /*certified_only=*/verify);
      if (hit == nullptr) {
        bump("serve.cache.miss");
        const auto found = std::find(sources.begin(), sources.end(), source);
        lane_of[i] = static_cast<std::size_t>(found - sources.begin());
        if (found == sources.end()) sources.push_back(source);
        continue;
      }
      bump("serve.cache.hit");
      if (!hit->intact()) {
        // Poisoned cache entry: quarantine it so the next query for
        // this key recomputes instead of re-serving the corruption.
        certification_failures_.fetch_add(1, std::memory_order_relaxed);
        bump("serve.certification.failed");
        cache_poisoned_.fetch_add(1, std::memory_order_relaxed);
        bump("serve.cache.poisoned");
        cache_.invalidate(key_for(source));
        fail(i, Status::kError,
             "cached result failed certification: storage checksum "
             "mismatch",
             ms_between(exec_start, Clock::now()));
        continue;
      }
      succeed(i, *hit, /*cache_hit=*/true,
              ms_between(exec_start, Clock::now()));
    }

    // One solve per distinct missed source. Near-far solves them all as
    // the lanes of one run_batch, which runs a lone lane inline on this
    // worker; the other algorithms never coalesce, so they have at most
    // one source.
    std::vector<algo::SsspResult> results;
    if (!sources.empty()) {
      if (algorithm == "dijkstra") {
        results.push_back(algo::dijkstra(graph_, sources.front()));
      } else if (algorithm == "delta-stepping") {
        results.push_back(algo::delta_stepping(
            graph_, sources.front(),
            {.delta = static_cast<graph::Distance>(head.delta),
             .control = &control}));
      } else if (algorithm == "self-tuning") {
        core::SelfTuningOptions st;
        st.set_point = set_point;
        st.control = &control;
        results.push_back(
            core::self_tuning_sssp(graph_, sources.front(), st));
      } else {  // near-far (the validated default)
        algo::BatchOptions nf;
        nf.delta = static_cast<graph::Distance>(head.delta);
        nf.control = &control;
        results = algo::run_batch(graph_, sources, nf).lanes;
      }
    }

    // Certify each fresh result (parents included) and cache it as a
    // slim entry. Only certified (or verification-waived) results enter
    // the cache; the insert-side serve.cache.flip drill poisons *after*
    // the entry's storage checksum is taken.
    std::vector<std::shared_ptr<const CacheEntry>> entries(sources.size());
    std::vector<std::string> lane_error(sources.size());
    for (std::size_t l = 0; l < sources.size(); ++l) {
      if (verify) {
        const verify::Certificate certificate =
            verify::certify(graph_, results[l]);
        if (!certificate.certified) {
          certification_failures_.fetch_add(1, std::memory_order_relaxed);
          bump("serve.certification.failed");
          lane_error[l] =
              "result failed certification: " + certificate.summary();
          continue;  // never cache a bad result
        }
      }
      entries[l] = std::make_shared<const CacheEntry>(results[l], verify);
      cache_.insert(key_for(sources[l]), entries[l]);
    }

    // Fan each fresh result out to every ticket that asked for it; they
    // all report the run's run_ms.
    const double run_ms = ms_between(exec_start, Clock::now());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (responded[i]) continue;
      const std::size_t l = lane_of[i];
      if (entries[l] == nullptr) {
        fail(i, Status::kError, lane_error[l], run_ms);
        continue;
      }
      maybe_sample(batch[i].request.id, sources[l], algorithm,
                   results[l].iterations, /*batched=*/batch.size() > 1);
      succeed(i, *entries[l], /*cache_hit=*/false, run_ms);
    }
    // The retry hint's per-query cost: this execution's time per ticket.
    const double per_query_ms = ms_between(exec_start, Clock::now()) /
                                static_cast<double>(batch.size());
    const double prev = ewma_run_ms_.load(std::memory_order_relaxed);
    ewma_run_ms_.store(0.8 * prev + 0.2 * per_query_ms,
                       std::memory_order_relaxed);
  } catch (const util::StopRequested& stopped) {
    // One interruption fails the whole execution; every ticket not yet
    // answered still gets its structured response.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (responded[i]) continue;
      const double run_ms = ms_between(exec_start, Clock::now());
      if (stopped.reason() == util::StopReason::kDeadline) {
        expired_running_.fetch_add(1, std::memory_order_relaxed);
        bump("serve.expired.running");
        fail(i, Status::kExpired, "deadline expired during execution",
             run_ms);
      } else {
        drain_aborted_.fetch_add(1, std::memory_order_relaxed);
        bump("serve.drain.aborted");
        Response response;
        response.status = Status::kShuttingDown;
        response.error = "aborted by drain";
        response.retry_after_ms = 1000.0;
        answer(i, std::move(response), run_ms);
      }
    }
  } catch (const std::exception& e) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (responded[i]) continue;
      handler_errors_.fetch_add(1, std::memory_order_relaxed);
      bump("serve.handler.error");
      fail(i, Status::kError, e.what(), ms_between(exec_start, Clock::now()));
    }
  }
}

void Server::maybe_sample(
    const std::string& id, graph::VertexId source,
    const std::string& algorithm,
    const std::vector<frontier::IterationStats>& iterations, bool batched) {
  if (options_.sample_reports == 0) return;
  std::lock_guard<std::mutex> lock(samples_mu_);
  if (samples_.size() >= options_.sample_reports) return;
  SampledReport sample;
  sample.id = id;
  sample.source = source;
  sample.algorithm = algorithm;
  sample.batched = batched;
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
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_queries = batched_queries_.load(std::memory_order_relaxed);
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
  w.key("workers").value(static_cast<std::uint64_t>(
      std::max<std::size_t>(1, options_.workers)));
  w.key("cache_entries").value(
      static_cast<std::uint64_t>(options_.cache_entries));
  w.key("default_deadline_ms").value(options_.default_deadline_ms);
  w.key("drain_ms").value(options_.drain_ms);
  w.key("verify_default").value(options_.verify_default);
  w.key("default_algorithm").value(options_.default_algorithm);
  w.key("batch_max").value(static_cast<std::uint64_t>(options_.batch_max));
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
  w.key("batches").value(s.batches);
  w.key("batched_queries").value(s.batched_queries);
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
      w.key("batched").value(sample.batched);
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
