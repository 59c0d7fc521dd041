#include "core/self_tuning.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "fault/failpoint.hpp"
#include "frontier/engine.hpp"
#include "obs/metrics.hpp"
#include "prof/profiler.hpp"
#include "obs/trace.hpp"
#include "sssp/near_far.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "verify/auditor.hpp"
#include "verify/flight_recorder.hpp"

namespace sssp::core {
namespace {

using graph::Distance;
using graph::kInfiniteDistance;
using graph::VertexId;

Distance to_threshold(double delta) {
  if (delta >= 9e18) return kInfiniteDistance;
  return static_cast<Distance>(std::max(1.0, std::ceil(delta)));
}

struct SelfTuningMetrics {
  obs::Counter& iterations;
  obs::Histogram& controller_seconds;
  obs::Histogram& x2;

  static SelfTuningMetrics& get() {
    static SelfTuningMetrics m{
        obs::MetricsRegistry::global().counter("self_tuning.iterations"),
        obs::MetricsRegistry::global().histogram(
            "controller.seconds_per_iteration"),
        obs::MetricsRegistry::global().histogram("self_tuning.x2")};
    return m;
  }
};

// Per-iteration counter tracks in Perfetto (the paper's Figures 1-3
// signals: X1-X4, delta, and the two model estimates).
void emit_counter_tracks(const frontier::IterationStats& stats) {
  obs::Tracer& tracer = obs::Tracer::global();
  const double ts = tracer.now_us();
  tracer.counter("X1", ts, static_cast<double>(stats.x1));
  tracer.counter("X2", ts, static_cast<double>(stats.x2));
  tracer.counter("X3", ts, static_cast<double>(stats.x3));
  tracer.counter("X4", ts, static_cast<double>(stats.x4));
  tracer.counter("delta", ts, stats.delta);
  tracer.counter("degree_estimate", ts, stats.degree_estimate);
  tracer.counter("alpha_estimate", ts, stats.alpha_estimate);
  tracer.counter("far_queue_size", ts,
                 static_cast<double>(stats.far_queue_size));
}

}  // namespace

struct SelfTuningRun::Impl {
  Impl(const graph::CsrGraph& graph, VertexId source,
       const SelfTuningOptions& opts)
      : options(opts),
        graph_(&graph),
        controller(make_controller_config(graph, opts)),
        engine(graph, source, {.control = opts.control}),
        far(algo::default_delta(graph)) {
    result.algorithm = "self-tuning";
    result.source = source;
  }

  static ControllerConfig make_controller_config(
      const graph::CsrGraph& graph, const SelfTuningOptions& options) {
    if (options.set_point <= 0.0)
      throw std::invalid_argument("self_tuning_sssp: set_point must be > 0");
    const double mean_weight = std::max(1.0, graph.mean_edge_weight());
    const double mean_degree =
        graph.num_vertices() > 0
            ? std::max(1.0, static_cast<double>(graph.num_edges()) /
                                static_cast<double>(graph.num_vertices()))
            : 1.0;
    ControllerConfig config;
    config.set_point = options.set_point;
    config.initial_delta =
        options.initial_delta > 0.0 ? options.initial_delta : mean_weight;
    config.initial_degree = mean_degree;
    // Degraded-mode bucket width: the classic delta-stepping choice.
    config.fallback_delta = mean_weight;
    return config;
  }

  bool done() const { return engine.frontier_empty(); }

  bool step();
  void run_audit(const frontier::IterationStats& stats);
  void finalize() {
    result.improving_relaxations = engine.total_improving_relaxations();
    result.controller_degradations = controller.health().degradations();
    result.controller_recoveries = controller.health().recoveries();
    result.controller_rejected_inputs = controller.health().rejected_inputs();
    result.audits_run = auditor.audits_run();
    result.audit_violations = auditor.violations();
    result.distances = engine.distances();
    result.parents = engine.parents();
  }

  SelfTuningOptions options;
  const graph::CsrGraph* graph_ = nullptr;
  DeltaController controller;
  frontier::NearFarEngine engine;
  frontier::FarQueue far;
  algo::SsspResult result;
  std::vector<VertexId> refill;
  util::WallTimer controller_timer;
  verify::InvariantAuditor auditor;
  std::vector<Distance> audit_bounds;
  bool flight_degraded_seen = false;
};

// Feeds one completed iteration's observable state to the invariant
// auditor. A trip either aborts (audit_abort) or quarantines the
// adaptive controller — distances stay exact in both outcomes; only
// tracking quality is surrendered in the second.
void SelfTuningRun::Impl::run_audit(const frontier::IterationStats& stats) {
  verify::IterationAudit audit;
  audit.iteration = result.iterations.size() - 1;  // just pushed
  audit.delta = stats.delta;
  audit.x1 = stats.x1;
  audit.x2 = stats.x2;
  audit.x3 = stats.x3;
  audit.x4 = stats.x4;
  audit.improving_relaxations = stats.improving_relaxations;
  audit.far_size = far.size();
  audit.degree_estimate = stats.degree_estimate;
  audit.alpha_estimate = stats.alpha_estimate;
  far.boundary_snapshot(audit_bounds);
  audit.far_bounds = audit_bounds;
  audit.far_floor = far.current_lower_bound();
  audit.distances = engine.distances();
  if (auditor.audit(audit) == 0) return;

  const std::string detail =
      auditor.findings().empty()
          ? std::string("(details capped)")
          : std::string(verify::to_string(auditor.findings().back().check)) +
                ": " + auditor.findings().back().detail;
  if (options.audit_abort) {
    SSSP_LOG(kError) << "invariant audit tripped at iteration "
                     << audit.iteration << " (" << detail << "); aborting";
    throw verify::AuditViolation(audit.iteration, detail);
  }
  SSSP_LOG(kWarn) << "invariant audit tripped at iteration "
                  << audit.iteration << " (" << detail
                  << "); quarantining the adaptive controller";
  controller.quarantine();
}

bool SelfTuningRun::Impl::step() {
  if (done()) return false;

  SSSP_TRACE_SPAN("iteration");
  SSSP_PROF_PHASE("iteration");
  frontier::IterationStats stats;
  stats.delta = controller.delta();
  double controller_seconds = 0.0;

  // --- stages 1+2: advance + filter (device work) ---
  // The engine emits the "advance" and "filter" spans itself.
  const auto advance = engine.advance_and_filter();
  stats.x1 = advance.x1;
  stats.x2 = advance.x2;
  stats.x3 = advance.x3;
  stats.improving_relaxations = advance.improving_relaxations;

  // --- controller phase A (host work) ---
  {
    SSSP_TRACE_SPAN("controller");
    SSSP_PROF_PHASE("controller");
    controller_timer.reset();
    // Injected fault: a corrupted engine counter reaching the
    // ADVANCE-MODEL. The model rejects non-finite observations.
    double x1_obs = static_cast<double>(advance.x1);
    if (SSSP_FAILPOINT("controller.observe.nan"))
      x1_obs = std::numeric_limits<double>::quiet_NaN();
    controller.observe_advance(x1_obs, static_cast<double>(advance.x2));
    controller_seconds += controller_timer.elapsed_seconds();
  }

  // --- stage 3: bisect at delta_k (device work) ---
  const Distance threshold_k = to_threshold(controller.delta());
  stats.x4 = engine.bisect(threshold_k);
  {
    SSSP_TRACE_SPAN("rebalance");
    SSSP_PROF_PHASE("far_spill");
    far.push_bulk(engine.spill(), engine.distances());
    engine.clear_spill();
  }

  // --- controller phase B: plan delta_{k+1} (host work) ---
  double new_delta = 0.0;
  {
    SSSP_TRACE_SPAN("controller");
    SSSP_PROF_PHASE("controller");
    controller_timer.reset();
    // Injected faults: corrupted X4 / far-queue statistics reaching the
    // planner. The controller's input firewall suppresses the plan and
    // the health monitor degrades on a sustained streak.
    double x4_in = static_cast<double>(stats.x4);
    if (SSSP_FAILPOINT("controller.x4.nan"))
      x4_in = std::numeric_limits<double>::quiet_NaN();
    double far_total = static_cast<double>(far.size());
    if (SSSP_FAILPOINT("controller.far.nan"))
      far_total = std::numeric_limits<double>::infinity();
    new_delta = controller.plan_delta(
        x4_in, far_total,
        static_cast<double>(far.current_partition_size()),
        static_cast<double>(std::min<Distance>(far.current_partition_bound(),
                                               Distance{1} << 60)));
    controller_seconds += controller_timer.elapsed_seconds();
  }

  const Distance threshold_next = to_threshold(new_delta);
  Distance reached = threshold_next;
  {
  SSSP_TRACE_SPAN("rebalance");
  SSSP_PROF_PHASE("rebalance");
  // Boundary maintenance moves entries between partitions: that is
  // device-side rebalance work (charged via rebalance_items), not host
  // controller compute.
  if (!far.empty()) {
    stats.rebalance_items += far.update_boundary(
        controller.target_frontier_size(), controller.last_alpha());
  }

  // --- stage 4: rebalancer (device work) ---
  // Upward delta moves are realized by the count-limited top-up below
  // (partitions are pulled in distance order up to the target), so a
  // planned increase needs no separate whole-range pull — that would
  // re-admit unbounded distance-tied cohorts past the set-point.
  if (threshold_next < threshold_k) {
    // Demoted vertices may lie below boundaries the queue has already
    // consumed; lower the floor so Eq. 7 can subdivide that range.
    far.lower_floor(threshold_next);
    stats.rebalance_items += engine.demote(threshold_next);
    far.push_bulk(engine.spill(), engine.distances());
    engine.clear_spill();
  }

  // Top-up: if the frontier is below the target X1 = P/d, consume far
  // partitions — each pre-sized to ~(P/d)/alpha distance units by Eq. 7 —
  // until the target is met or the queue is exhausted. This is both the
  // forced-progress guarantee (the frontier never stays dry while live
  // work remains) and the mechanism that holds X2 at the set-point.
  const double target_x1 = controller.target_frontier_size();
  // Refill to the low-water mark only; pulling all the way to the target
  // from inside the deadband would immediately trigger the demote side
  // (ping-pong).
  const double low_water = target_x1 * (1.0 - controller.deadband_ratio());
  while (static_cast<double>(engine.frontier_size()) < low_water &&
         !far.empty()) {
    stats.rebalance_items += far.update_boundary(
        controller.target_frontier_size(), controller.last_alpha());
    refill.clear();
    // Count-limited pull: distance ties (whole BFS levels on the hop
    // metric) can make a partition bigger than the target; admit only
    // what the set-point calls for and leave the rest postponed.
    const auto need = static_cast<std::uint64_t>(std::max(
        1.0, std::ceil(target_x1 -
                       static_cast<double>(engine.frontier_size()))));
    const auto pull =
        far.pull_front_partition(engine.distances(), refill, need);
    engine.inject(refill);
    stats.rebalance_items += pull.scanned;
    if (!pull.exhausted) break;  // partial pull: target met, delta holds
    if (pull.bound == kInfiniteDistance) {
      reached = kInfiniteDistance;
      break;
    }
    reached = std::max(reached, pull.bound + 1);
  }
  }  // rebalance span
  if (reached > threshold_next) {
    SSSP_TRACE_SPAN("controller");
    SSSP_PROF_PHASE("controller");
    if (obs::trace_enabled()) {
      obs::Tracer& tracer = obs::Tracer::global();
      tracer.instant("forced_progress", tracer.now_us());
    }
    SSSP_LOG(kDebug) << "forced progress: threshold " << threshold_next
                     << " -> " << reached;
    controller_timer.reset();
    controller.force_delta(
        reached == kInfiniteDistance ? 9e18 : static_cast<double>(reached),
        static_cast<double>(stats.x4));
    controller_seconds += controller_timer.elapsed_seconds();
  }

  // Re-anchor: any threshold above the frontier's maximum tentative
  // distance admits nothing extra by itself (admission is realized by
  // the count-limited top-up), but a runaway delta poisons the Eq. 8
  // bootstrap (alpha = X4/delta) and disarms future demotes. Keep delta
  // hugging the wavefront from above (the engine tracks the frontier
  // max inside its existing passes, so this costs no extra device
  // work).
  if (!engine.frontier_empty()) {
    const Distance snap = engine.frontier_max_distance() + 1;
    if (static_cast<double>(snap) < controller.delta()) {
      SSSP_TRACE_SPAN("controller");
      SSSP_PROF_PHASE("controller");
      controller_timer.reset();
      controller.force_delta(static_cast<double>(snap),
                             static_cast<double>(stats.x4),
                             /*inform_model=*/false);
      controller_seconds += controller_timer.elapsed_seconds();
    }
  }

  stats.far_queue_size = far.size();
  stats.degree_estimate = controller.advance_model().degree();
  stats.alpha_estimate = controller.last_alpha();
  stats.controller_degraded = controller.health().degraded();
  if (options.measure_controller_time) {
    stats.controller_seconds = controller_seconds;
    result.controller_seconds += controller_seconds;
  }
  if (obs::trace_enabled()) emit_counter_tracks(stats);
  if (obs::metrics_enabled()) {
    SelfTuningMetrics& m = SelfTuningMetrics::get();
    m.iterations.add();
    m.controller_seconds.record(controller_seconds);
    m.x2.record(static_cast<double>(stats.x2));
  }
  if (verify::flight_enabled()) {
    const std::uint64_t iteration = result.iterations.size();
    verify::record_iteration(iteration, stats.delta, stats.x1, stats.x2,
                             stats.x3, stats.x4, stats.far_queue_size);
    if (stats.controller_degraded != flight_degraded_seen) {
      flight_degraded_seen = stats.controller_degraded;
      verify::record_event(verify::FlightEventKind::kHealth, iteration,
                           stats.controller_degraded ? "degraded"
                                                     : "recovered");
    }
  }
  result.iterations.push_back(stats);
  if (prof::profiling_enabled())
    prof::Profiler::global().sample_iteration(result.iterations.size() - 1);
  // Audit at the iteration boundary: the state just pushed is exactly
  // what a checkpoint would persist, so an abort here unwinds from a
  // resumable point.
  if (options.audit_every > 0 &&
      result.iterations.size() % options.audit_every == 0)
    run_audit(stats);
  return true;
}

SelfTuningRun::SelfTuningRun(const graph::CsrGraph& graph,
                             graph::VertexId source,
                             const SelfTuningOptions& options)
    : impl_(std::make_unique<Impl>(graph, source, options)) {}

SelfTuningRun::SelfTuningRun(const graph::CsrGraph& graph,
                             const SelfTuningOptions& options,
                             Snapshot&& snapshot)
    : impl_(std::make_unique<Impl>(graph, snapshot.source, options)) {
  // Construction above built the iteration-0 state; overwrite every
  // stateful component from the snapshot. Each restore validates its
  // own inputs and throws std::invalid_argument before mutating, so a
  // corrupted snapshot can never yield a steppable run.
  impl_->engine.restore(std::move(snapshot.engine));
  impl_->far.restore(std::move(snapshot.far));
  impl_->controller.restore(snapshot.controller);
  impl_->result.iterations = std::move(snapshot.iterations);
  impl_->result.controller_seconds = snapshot.controller_seconds;
}

SelfTuningRun::~SelfTuningRun() = default;

SelfTuningRun::Snapshot SelfTuningRun::snapshot() const {
  Snapshot snapshot;
  snapshot.source = impl_->result.source;
  snapshot.engine = impl_->engine.state();
  snapshot.far = impl_->far.state();
  snapshot.controller = impl_->controller.state();
  snapshot.iterations = impl_->result.iterations;
  snapshot.controller_seconds = impl_->result.controller_seconds;
  return snapshot;
}

std::size_t SelfTuningRun::iterations_completed() const {
  return impl_->result.iterations.size();
}

std::uint64_t SelfTuningRun::total_improving_relaxations() const {
  return impl_->engine.total_improving_relaxations();
}

bool SelfTuningRun::step() { return impl_->step(); }

bool SelfTuningRun::done() const { return impl_->done(); }

void SelfTuningRun::set_set_point(double set_point) {
  impl_->controller.set_set_point(set_point);
}

double SelfTuningRun::set_point() const {
  return impl_->controller.set_point();
}

const DeltaController& SelfTuningRun::controller() const {
  return impl_->controller;
}

const frontier::IterationStats& SelfTuningRun::last_iteration() const {
  if (impl_->result.iterations.empty())
    throw std::logic_error("SelfTuningRun: no iterations executed yet");
  return impl_->result.iterations.back();
}

algo::SsspResult SelfTuningRun::take_result() {
  impl_->finalize();
  return std::move(impl_->result);
}

algo::SsspResult self_tuning_sssp(const graph::CsrGraph& graph,
                                  graph::VertexId source,
                                  const SelfTuningOptions& options) {
  SelfTuningRun run(graph, source, options);
  while (run.step()) {
  }
  return run.take_result();
}

}  // namespace sssp::core
