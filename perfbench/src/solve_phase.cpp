// Solve phase: the paper's measurement — one exact SSSP solve per source
// — for near-far, self-tuning and delta-stepping at default options,
// plus batches of 8 sources, following PASGAL's protocol: seeded
// sources with out-edges, a warm-up sample excluded, and the verifier
// run after the timed region, never inside it.
#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

#include "bench.hpp"
#include "core/self_tuning.hpp"
#include "ref_sweep.hpp"
#include "serve/server.hpp"
#include "sim/device.hpp"
#include "sim/dvfs.hpp"
#include "sim/run.hpp"
#include "spans.hpp"
#include "sssp/batch_engine.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/near_far.hpp"
#include "verify/certifier.hpp"

namespace perfbench {

namespace {

using sssp::algo::SsspResult;
using sssp::graph::VertexId;

constexpr std::size_t kBatchLanes = 8;
constexpr std::size_t kSamplesPerBatch = 8;
// Batches cycle over the first 64 sources, so each group recurs within
// a run and the median does not hinge on which groups got a sample.
constexpr std::size_t kBatchGroups = 8;

double relax_per_reached(const SsspResult& r) {
  const std::size_t reached = r.reached_count();
  return reached > 0 ? static_cast<double>(r.improving_relaxations) /
                           static_cast<double>(reached)
                     : 0.0;
}

struct Solver {
  Context& ctx;
  SolveStats& stats;
  sssp::algo::NearFarOptions near_far_options{};
  sssp::core::SelfTuningOptions self_tuning_options{};
  sssp::algo::DeltaSteppingOptions delta_options{};
  sssp::algo::BatchOptions batch_options{};
  const sssp::sim::DeviceSpec device = sssp::sim::DeviceSpec::jetson_tk1();
  const sssp::sim::DefaultGovernor governor{};
  // Sources whose first-cycle work counts and replay are recorded.
  std::vector<bool> profiled;
  std::size_t profiled_count = 0;

  Solver(Context& c, SolveStats& s)
      : ctx(c), stats(s), profiled(c.sources.size(), false) {
    // The server's own default set-point, read from the program.
    self_tuning_options.set_point = sssp::serve::ServerOptions{}.set_point;
    // Deterministic replay: the device model sees no host jitter.
    self_tuning_options.measure_controller_time = false;
  }

  template <typename Fn>
  SsspResult timed(const char* span_name, const char* layer, Fn&& solve,
                   double& ms) {
    ++ctx.tally.attempted;
    const ScopedSpan span(ctx.spans, span_name, layer);
    const Clock::time_point start = Clock::now();
    SsspResult result = solve();
    ms = ms_between(start, Clock::now());
    return result;
  }

  // Outside every timed region: certificate plus checksum agreement.
  void verify(const SsspResult& result, const char* who,
              std::size_t ref_index) {
    const Clock::time_point start = Clock::now();
    sssp::verify::Certificate cert;
    {
      const ScopedSpan span(ctx.spans, "verify.certify", "verify");
      cert = sssp::verify::certify(*ctx.graph, result);
    }
    stats.certify.add(ms_between(start, Clock::now()), ref_index);
    if (!cert.certified) {
      ctx.tally.fail(std::string(who) + " source " +
                     std::to_string(result.source) + ": " + cert.summary());
      return;
    }
    ctx.check_checksum(result.source, dist_checksum(result.distances), who);
  }

  void profile(std::size_t index, const SsspResult& near_far,
               const SsspResult& self_tuning, const SsspResult& delta) {
    if (profiled[index]) return;
    profiled[index] = true;
    ++profiled_count;
    stats.near_far_iterations += static_cast<double>(near_far.num_iterations());
    stats.near_far_relax_per_reached += relax_per_reached(near_far);
    stats.self_tuning_iterations +=
        static_cast<double>(self_tuning.num_iterations());
    stats.self_tuning_relax_per_reached += relax_per_reached(self_tuning);
    stats.delta_stepping_relax_per_reached += relax_per_reached(delta);

    const Clock::time_point start = Clock::now();
    sssp::sim::RunReport report;
    {
      const ScopedSpan span(ctx.spans, "sim.replay", "sim");
      sssp::sim::SimulateOptions options;
      options.keep_iteration_reports = false;
      report = sssp::sim::simulate_run(
          device, governor, self_tuning.to_workload(ctx.workload), options);
    }
    stats.replay_ms.push_back(ms_between(start, Clock::now()));
    stats.device_time_ms += report.total_seconds * 1e3;
    stats.device_energy_mj += report.energy_joules * 1e3;
  }

  // One sample: the three solvers on one source, bracketed by reference
  // points, then verified and (first time per source) profiled.
  void sample(std::size_t index, bool record) {
    const VertexId source = ctx.sources[index];
    const Context& c = ctx;
    const std::size_t before = ctx.ref->point(ctx.spans);
    double nf_ms = 0.0, st_ms = 0.0, ds_ms = 0.0;
    const SsspResult nf = timed("sssp.near_far", "sssp", [&] {
      return sssp::algo::near_far(*c.graph, source, near_far_options);
    }, nf_ms);
    const SsspResult st = timed("core.self_tuning", "core", [&] {
      return sssp::core::self_tuning_sssp(*c.graph, source,
                                          self_tuning_options);
    }, st_ms);
    const SsspResult ds = timed("sssp.delta_stepping", "sssp", [&] {
      return sssp::algo::delta_stepping(*c.graph, source, delta_options);
    }, ds_ms);
    const std::size_t after = ctx.ref->point(ctx.spans);
    if (record) {
      stats.near_far.add(nf_ms, before);
      stats.self_tuning.add(st_ms, before);
      stats.delta_stepping.add(ds_ms, before);
    }
    verify(nf, "near-far", after);
    verify(st, "self-tuning", after);
    verify(ds, "delta-stepping", after);
    profile(index, nf, st, ds);
  }

  void batch(std::size_t group, bool record) {
    const std::span<const VertexId> lanes(
        ctx.sources.data() + group * kBatchLanes, kBatchLanes);
    const std::size_t before = ctx.ref->point(ctx.spans);
    ctx.tally.attempted += kBatchLanes;
    const Clock::time_point start = Clock::now();
    sssp::algo::BatchResult result;
    {
      const ScopedSpan span(ctx.spans, "sssp.batch8", "sssp");
      result = sssp::algo::run_batch(*ctx.graph, lanes, batch_options);
    }
    const double ms = ms_between(start, Clock::now());
    const std::size_t after = ctx.ref->point(ctx.spans);
    if (record) stats.batch8.add(ms, before);
    for (const SsspResult& lane : result.lanes) verify(lane, "batch lane", after);
  }
};

}  // namespace

SolveStats run_solve_phase(Context& ctx, Clock::time_point deadline,
                           bool profile_all) {
  if (ctx.sources.size() < kBatchGroups * kBatchLanes)
    throw std::logic_error("solve phase needs at least 64 sources");
  SolveStats stats;
  Solver solver(ctx, stats);

  // Warm-up, excluded: first-touch page faults and pool start-up.
  if (ctx.spans != nullptr) ctx.spans->set_sample(0);
  solver.sample(0, false);
  solver.batch(0, false);

  std::size_t i = 0;
  while (Clock::now() < deadline) {
    if (ctx.spans != nullptr) ctx.spans->set_sample(i + 1);
    solver.sample(i % ctx.sources.size(), true);
    if (i % kSamplesPerBatch == kSamplesPerBatch - 1)
      solver.batch((i / kSamplesPerBatch) % kBatchGroups, true);
    ++i;
  }
  // The device model and work counts average every source, so they
  // never depend on how many samples fit in the time.
  for (std::size_t s = 0; profile_all && s < ctx.sources.size(); ++s)
    if (!solver.profiled[s]) solver.sample(s, false);

  const auto mean = [&](double& total) {
    total /= static_cast<double>(std::max<std::size_t>(1, solver.profiled_count));
  };
  mean(stats.device_time_ms);
  mean(stats.device_energy_mj);
  mean(stats.near_far_iterations);
  mean(stats.near_far_relax_per_reached);
  mean(stats.self_tuning_iterations);
  mean(stats.self_tuning_relax_per_reached);
  mean(stats.delta_stepping_relax_per_reached);
  for (Series* s : {&stats.near_far, &stats.self_tuning,
                    &stats.delta_stepping, &stats.batch8, &stats.certify})
    s->normalize(*ctx.ref);
  return stats;
}

}  // namespace perfbench
