// sssp_tool — run any of the library's SSSP algorithms on a graph file,
// verify against Dijkstra, and optionally replay on a device model with
// CSV trace export.
//
//   sssp_tool --in cal.bin --algorithm self-tuning --set-point 20000
//             --device tk1 --dvfs default --trace-csv run.csv
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "ckpt/checkpointed_run.hpp"
#include "core/self_tuning.hpp"
#include "tools/tool_common.hpp"
#include "graph/degree_stats.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "sim/device_config.hpp"
#include "sim/run.hpp"
#include "sim/trace_io.hpp"
#include "sim/workload_io.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/near_far.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"
#include "verify/auditor.hpp"
#include "verify/certifier.hpp"
#include "verify/flight_recorder.hpp"

using namespace sssp;

namespace {

using tools::load_any_graph;

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  flags.define("in", "", "input graph (.bin/.gr/.mtx/.txt/.el); required");
  flags.define("algorithm", "self-tuning",
               "dijkstra | bellman-ford | delta-stepping | near-far | "
               "self-tuning");
  flags.define("source", "-1", "source vertex (-1 = max out-degree)");
  flags.define("delta", "0", "static delta for delta-stepping/near-far");
  flags.define("set-point", "20000", "parallelism target for self-tuning");
  flags.define("device", "tk1", "device model for replay: tk1 | tx1 | none");
  flags.define("device-file", "",
               "custom device config (overrides --device; see "
               "sim/device_config.hpp)");
  flags.define("dvfs", "default",
               "DVFS: 'default' governor or pinned 'core/mem' MHz pair");
  flags.define("trace-csv", "", "write per-iteration device trace CSV here");
  flags.define("workload-csv", "",
               "record the workload for replay_tool (see sim/workload_io.hpp)");
  flags.define("controller-csv", "",
               "write per-iteration controller state (delta, d, alpha, X1-X4)");
  tools::define_observability_flags(flags);
  tools::define_profile_flags(flags);
  tools::define_fault_flags(flags);
  tools::define_threads_flag(flags);
  tools::define_run_control_flags(flags);
  tools::define_resource_flags(flags);
  tools::define_checkpoint_flags(flags);
  tools::define_verify_flags(flags);
  flags.define("report-out", "",
               "write the merged run-report JSON here (engine stats + "
               "controller internals + device power/energy)");
  flags.define("distances-out", "",
               "write the raw distance/parent arrays here (binary; for "
               "byte-exact resume comparisons)");
  if (flags.handle_help("run an SSSP algorithm on a graph file")) return 0;

  util::RunControl control;
  try {
    flags.check_unknown();
    tools::enable_observability(flags);
    tools::enable_faults(flags);
    tools::apply_resource_flags(flags);
    if (!flags.get_string("flight-out").empty() ||
        flags.get_int("audit-every") > 0)
      verify::set_flight_enabled(true);
    const std::size_t threads = tools::apply_threads_flag(flags);
    tools::apply_run_control_flags(flags, control);
    const auto delta = static_cast<graph::Distance>(util::parse_unsigned(
        "delta", flags.get_string("delta"), graph::kInfiniteDistance));
    const std::string dvfs = flags.get_string("dvfs");
    std::optional<sim::FrequencyPair> pinned_dvfs;
    if (dvfs != "default") {
      const auto slash = dvfs.find('/');
      if (slash == std::string::npos)
        throw util::FlagError("--dvfs expects 'default' or 'core/mem'");
      const auto mhz = [](const std::string& text) {
        return static_cast<std::uint32_t>(util::parse_unsigned(
            "dvfs", text, std::numeric_limits<std::uint32_t>::max()));
      };
      pinned_dvfs = sim::FrequencyPair{mhz(dvfs.substr(0, slash)),
                                       mhz(dvfs.substr(slash + 1))};
    }
    // SIGINT/SIGTERM request a graceful stop: the run aborts at the next
    // poll site, reports are flushed with "interrupted": true, and the
    // tool exits 11. A second signal hard-exits 128+signo.
    util::install_signal_stop(control);
    const std::string in = flags.get_string("in");
    if (in.empty()) {
      std::fprintf(stderr, "--in is required; see --help\n");
      return 2;
    }
    const graph::CsrGraph g = load_any_graph(in);
    std::printf("graph: %s\n",
                to_string(graph::compute_degree_stats(g)).c_str());

    // --resume implies self-tuning (the only checkpointable algorithm)
    // and overrides --source with the checkpoint's.
    std::optional<ckpt::RunState> resume_state;
    if (const auto rpath = flags.get_string("resume"); !rpath.empty())
      resume_state = ckpt::load_checkpoint_file(rpath);

    const std::int64_t requested = flags.get_int("source");
    const graph::VertexId source =
        resume_state.has_value() ? resume_state->meta.source
        : requested >= 0         ? static_cast<graph::VertexId>(requested)
                                 : graph::max_degree_vertex(g);

    const std::string algorithm =
        resume_state.has_value() ? "self-tuning" : flags.get_string("algorithm");
    // Armed after graph load so the profiled span covers the algorithm
    // (and its verify/checkpoint phases), not the file I/O.
    const bool profiling = tools::enable_profiling(flags);
    util::WallTimer timer;
    algo::SsspResult result;
    util::StopReason stop = util::StopReason::kNone;
    bool stopped_mid_iteration = false;
    ckpt::CheckpointedResult checkpointing{};
    try {
      if (algorithm == "dijkstra") {
        result = algo::dijkstra(g, source);
      } else if (algorithm == "bellman-ford") {
        result = algo::bellman_ford(g, source, &control);
      } else if (algorithm == "delta-stepping") {
        result = algo::delta_stepping(g, source,
                                      {.delta = delta, .control = &control});
      } else if (algorithm == "near-far") {
        result = algo::near_far(g, source,
                                {.delta = delta, .control = &control});
      } else if (algorithm == "self-tuning") {
        core::SelfTuningOptions options;
        options.set_point = flags.get_double("set-point");
        options.audit_every =
            static_cast<std::uint64_t>(flags.get_int("audit-every"));
        options.audit_abort = flags.get_bool("audit-abort");
        ckpt::CheckpointPolicy policy;
        policy.path = flags.get_string("checkpoint-out");
        policy.every_iterations =
            static_cast<std::uint64_t>(flags.get_int("checkpoint-every"));
        policy.every_seconds =
            static_cast<double>(flags.get_int("checkpoint-every-ms")) / 1000.0;
        checkpointing = ckpt::run_self_tuning_checkpointed(
            g, source, options, policy, &control,
            resume_state.has_value() ? &*resume_state : nullptr);
        result = std::move(checkpointing.result);
        stop = checkpointing.stop;
        stopped_mid_iteration = checkpointing.stopped_mid_iteration;
        if (checkpointing.resumed)
          std::printf("resumed from iteration %llu (%s)\n",
                      static_cast<unsigned long long>(
                          checkpointing.resumed_from_iteration),
                      flags.get_string("resume").c_str());
        if (checkpointing.checkpoints_written > 0)
          std::printf("checkpoints: %llu written, %llu bytes\n",
                      static_cast<unsigned long long>(
                          checkpointing.checkpoints_written),
                      static_cast<unsigned long long>(
                          checkpointing.checkpoint_bytes));
      } else {
        std::fprintf(stderr, "unknown algorithm '%s'\n", algorithm.c_str());
        return 2;
      }
    } catch (const util::StopRequested& stopped) {
      // A non-checkpointed algorithm aborted mid-run: no usable result,
      // but reports and metrics still flush below, marked interrupted.
      stop = stopped.reason();
      stopped_mid_iteration = true;
    }
    const double host_seconds = timer.elapsed_seconds();
    if (stop != util::StopReason::kNone) {
      std::printf("run stopped early: %s%s\n", util::to_string(stop),
                  stopped_mid_iteration ? " (mid-iteration)" : "");
      verify::record_event(verify::FlightEventKind::kStop,
                           result.num_iterations(), util::to_string(stop));
    }
    if (checkpointing.audit_aborted)
      std::printf("run aborted by the invariant auditor (%llu audits, %llu "
                  "violations)\n",
                  static_cast<unsigned long long>(result.audits_run),
                  static_cast<unsigned long long>(result.audit_violations));

    std::printf("%s from %u: reached %zu/%zu vertices, %zu iterations, "
                "%.2fs host time, %zu threads\n",
                result.algorithm.c_str(), source, result.reached_count(),
                g.num_vertices(), result.num_iterations(), host_seconds,
                threads);
    if (!result.iterations.empty())
      std::printf("average parallelism: %.0f, improving relaxations: %llu\n",
                  result.average_parallelism(),
                  static_cast<unsigned long long>(
                      result.improving_relaxations));
    if (result.controller_degradations > 0)
      std::printf("controller health: %llu degradations, %llu recoveries, "
                  "%llu rejected inputs\n",
                  static_cast<unsigned long long>(
                      result.controller_degradations),
                  static_cast<unsigned long long>(
                      result.controller_recoveries),
                  static_cast<unsigned long long>(
                      result.controller_rejected_inputs));

    if (const auto wpath = flags.get_string("workload-csv");
        !wpath.empty() && !result.iterations.empty()) {
      sim::save_workload_csv_file(result.to_workload(in), wpath);
      std::printf("wrote workload to %s\n", wpath.c_str());
    }
    if (const auto cpath = flags.get_string("controller-csv");
        !cpath.empty() && !result.iterations.empty()) {
      util::CsvWriter csv(cpath);
      csv.write_header({"iteration", "delta", "degree_estimate",
                        "alpha_estimate", "x1", "x2", "x3", "x4",
                        "rebalance_items", "far_queue_size"});
      for (std::size_t i = 0; i < result.iterations.size(); ++i) {
        const auto& it = result.iterations[i];
        csv.write(i, it.delta, it.degree_estimate, it.alpha_estimate, it.x1,
                  it.x2, it.x3, it.x4, it.rebalance_items,
                  it.far_queue_size);
      }
      std::printf("wrote controller trace to %s\n", cpath.c_str());
    }

    if (result.audits_run > 0)
      std::printf("invariant audits: %llu run, %llu violations\n",
                  static_cast<unsigned long long>(result.audits_run),
                  static_cast<unsigned long long>(result.audit_violations));

    // Injected post-run corruptions: flip one entry between the solver
    // and the certifier so detection is testable end-to-end (mutation
    // tests and the chaos soak arm these).
    if (!result.distances.empty() && SSSP_FAILPOINT("verify.flip_dist"))
      result.distances[result.distances.size() / 2] ^= 1;
    if (!result.parents.empty() && SSSP_FAILPOINT("verify.flip_parent"))
      result.parents[result.parents.size() / 2] ^= 1;

    const bool strict = flags.get_bool("verify-strict");
    std::optional<verify::Certificate> certificate;
    if ((flags.get_bool("verify") || strict) &&
        stop == util::StopReason::kNone && !checkpointing.audit_aborted &&
        !result.distances.empty()) {
      verify::CertifyOptions copts;
      copts.strict = strict;
      certificate = verify::certify(g, result, copts);
      std::printf("certification: %s (%s)\n",
                  certificate->certified ? "PASS" : "FAILED",
                  certificate->summary().c_str());
      if (!certificate->certified)
        for (const verify::Violation& v : certificate->samples)
          std::fprintf(stderr, "  violation: %s at v=%u: %s\n",
                       verify::to_string(v.kind), v.vertex, v.detail.c_str());
    }

    // Stop after certification so the "verify" phase is attributed; the
    // profile then feeds the report's energy/profile blocks below.
    std::optional<prof::RunProfile> profile;
    if (profiling) profile = tools::finish_profiling();

    if (const auto dpath = flags.get_string("distances-out");
        !dpath.empty() && stop == util::StopReason::kNone) {
      // Raw arrays for byte-exact comparisons between an uninterrupted
      // run and a kill-and-resume run (the CI crash-recovery matrix
      // cmp(1)s these files).
      const std::uint64_t n = result.distances.size();
      std::string bytes;
      bytes.reserve(sizeof n + n * sizeof(graph::Distance) +
                    result.parents.size() * sizeof(graph::VertexId));
      bytes.append(reinterpret_cast<const char*>(&n), sizeof n);
      bytes.append(reinterpret_cast<const char*>(result.distances.data()),
                   n * sizeof(graph::Distance));
      bytes.append(reinterpret_cast<const char*>(result.parents.data()),
                   result.parents.size() * sizeof(graph::VertexId));
      util::atomic_write_file(dpath, bytes);
      std::printf("wrote distances/parents to %s\n", dpath.c_str());
    }

    const std::string device_name = flags.get_string("device");
    const std::string device_file = flags.get_string("device-file");
    std::optional<sim::RunReport> sim_report;
    std::string device_label;
    std::string dvfs_label;
    if ((device_name != "none" || !device_file.empty()) &&
        !result.iterations.empty()) {
      const sim::DeviceSpec device =
          !device_file.empty() ? sim::load_device_config_file(device_file)
          : device_name == "tx1" ? sim::DeviceSpec::jetson_tx1()
                                 : sim::DeviceSpec::jetson_tk1();
      std::unique_ptr<sim::DvfsPolicy> policy;
      if (pinned_dvfs.has_value())
        policy = std::make_unique<sim::PinnedDvfs>(*pinned_dvfs);
      else
        policy = std::make_unique<sim::DefaultGovernor>();
      sim_report = sim::simulate_run(device, *policy, result.to_workload(in));
      device_label = device.name;
      dvfs_label = dvfs;
      std::printf("%s @ %s: %.4f s, %.2f W avg (peak %.2f), %.2f J\n",
                  device.name.c_str(), dvfs.c_str(),
                  sim_report->total_seconds, sim_report->average_power_w,
                  sim_report->peak_power_w, sim_report->energy_joules);
      if (const auto csv = flags.get_string("trace-csv"); !csv.empty()) {
        sim::write_run_report_csv_file(*sim_report, csv);
        std::printf("wrote per-iteration trace to %s\n", csv.c_str());
      }
    }

    // Flight-recorder dump before the run report, so the report can
    // cross-link the file it should be read next to.
    std::string flight_path;
    if (const auto fpath = flags.get_string("flight-out"); !fpath.empty()) {
      std::string reason = "run-complete";
      if (checkpointing.audit_aborted)
        reason = "audit-abort";
      else if (stop != util::StopReason::kNone)
        reason = util::to_string(stop);
      else if (certificate && !certificate->certified)
        reason = "certification-failed";
      if (verify::FlightRecorder::global().save(fpath, reason)) {
        flight_path = fpath;
        std::printf("wrote flight recorder dump to %s (%llu events)\n",
                    fpath.c_str(),
                    static_cast<unsigned long long>(
                        verify::FlightRecorder::global().total_recorded()));
      } else {
        std::fprintf(stderr, "flight recorder dump failed: %s\n",
                     fpath.c_str());
      }
    }

    if (const auto rpath = flags.get_string("report-out"); !rpath.empty()) {
      obs::RunReportMeta meta;
      meta.tool = "sssp_tool";
      meta.algorithm = result.algorithm;
      meta.dataset = in;
      meta.source = source;
      meta.set_point =
          algorithm == "self-tuning" ? flags.get_double("set-point") : 0.0;
      meta.device = device_label;
      meta.dvfs = dvfs_label;
      meta.num_vertices = g.num_vertices();
      meta.reached = result.reached_count();
      meta.improving_relaxations = result.improving_relaxations;
      meta.host_seconds = host_seconds;
      meta.threads = threads;
      meta.controller_seconds = result.controller_seconds;
      meta.controller_degradations = result.controller_degradations;
      meta.controller_recoveries = result.controller_recoveries;
      meta.controller_rejected_inputs = result.controller_rejected_inputs;
      meta.interrupted =
          stop != util::StopReason::kNone || checkpointing.audit_aborted;
      meta.outcome = checkpointing.audit_aborted ? "audit-abort"
                     : stop == util::StopReason::kNone
                         ? "completed"
                         : util::to_string(stop);
      meta.checkpoints_written = checkpointing.checkpoints_written;
      meta.checkpoint_bytes = checkpointing.checkpoint_bytes;
      meta.resumed = checkpointing.resumed;
      meta.resumed_from_iteration = checkpointing.resumed_from_iteration;
      meta.verification.requested =
          certificate.has_value() || result.audits_run > 0;
      if (certificate.has_value()) {
        meta.verification.mode = strict ? "certify+dijkstra" : "certify";
        meta.verification.certified = certificate->certified;
        meta.verification.vertices_checked = certificate->vertices_checked;
        meta.verification.edges_checked = certificate->edges_checked;
        meta.verification.violations = certificate->violations;
        meta.verification.seconds = certificate->seconds;
        for (const verify::Violation& v : certificate->samples)
          meta.verification.samples.push_back(
              std::string(verify::to_string(v.kind)) + " at v=" +
              std::to_string(v.vertex) + ": " + v.detail);
      }
      meta.verification.audits_run = result.audits_run;
      meta.verification.audit_violations = result.audit_violations;
      meta.verification.flight_recorder_path = flight_path;
      obs::save_run_report(rpath, meta, result.iterations,
                          sim_report ? &*sim_report : nullptr,
                          profile ? &*profile : nullptr);

      // Round-trip sanity: the file must parse and carry one record per
      // iteration (scripted consumers depend on this).
      std::ifstream check(rpath, std::ios::binary);
      std::ostringstream buffer;
      buffer << check.rdbuf();
      const std::string document = buffer.str();
      std::size_t records = 0;
      for (std::size_t pos = document.find("{\"iter\":");
           pos != std::string::npos;
           pos = document.find("{\"iter\":", pos + 1))
        ++records;
      if (!obs::json_valid(document) ||
          records != result.iterations.size()) {
        std::fprintf(stderr,
                     "report self-check FAILED: valid=%d records=%zu "
                     "iterations=%zu\n",
                     obs::json_valid(document) ? 1 : 0, records,
                     result.iterations.size());
        return 1;
      }
      std::printf("wrote run report to %s (%zu iteration records, valid "
                  "JSON)\n",
                  rpath.c_str(), records);
    }

    tools::print_fault_summary();
    tools::write_observability_outputs(flags);
    if (stop != util::StopReason::kNone)
      return tools::exit_code_for_stop(stop);
    if (checkpointing.audit_aborted ||
        (certificate.has_value() && !certificate->certified))
      return tools::kExitCertificationFailed;
  } catch (const ckpt::InjectedCrash& e) {
    // Simulated process death: exit with a distinct code and WITHOUT
    // flushing reports — the resume path must cope with their absence,
    // exactly as after a real crash.
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return tools::kExitInjectedCrash;
  } catch (...) {
    return tools::exit_code_for_failure();
  }
  return 0;
}
