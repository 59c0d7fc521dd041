// replay_tool — device-model what-if analysis without re-running the
// algorithm: load a recorded workload (see sim/workload_io.hpp), then
// sweep devices and DVFS settings over it.
//
//   sssp_tool --in g.bin --workload-csv run.csv   # record (see below)
//   replay_tool --workload run.csv                # sweep TK1+TX1 menus
//   replay_tool --workload run.csv --device-file myboard.cfg
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/checkpointed_run.hpp"
#include "core/self_tuning.hpp"
#include "obs/run_report.hpp"
#include "sim/device_config.hpp"
#include "sim/energy_metrics.hpp"
#include "sim/run.hpp"
#include "sim/workload_io.hpp"
#include "tools/tool_common.hpp"
#include "util/csv.hpp"
#include "util/flags.hpp"
#include "verify/certifier.hpp"
#include "verify/flight_recorder.hpp"

using namespace sssp;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  flags.define("workload", "", "workload CSV (from sssp_tool --workload-csv)");
  flags.define("resume", "",
               "replay the iteration history recorded in this checkpoint "
               "file instead of a workload CSV");
  flags.define("device-file", "", "only sweep this custom device");
  flags.define("freq-stride", "3", "take every k-th frequency menu entry");
  flags.define("graph", "",
               "with --resume: the checkpoint's graph file; the run is "
               "finished in-process and the result certified (exit 13 on "
               "failure)");
  tools::define_observability_flags(flags);
  tools::define_fault_flags(flags);
  tools::define_threads_flag(flags);
  tools::define_run_control_flags(flags);
  tools::define_resource_flags(flags);
  tools::define_verify_flags(flags);
  flags.define("report-out", "",
               "write a run-report JSON for the first device's default-"
               "governor replay here");
  if (flags.handle_help("replay a recorded workload across device models"))
    return 0;

  util::RunControl control;
  try {
    flags.check_unknown();
    tools::enable_observability(flags);
    tools::enable_faults(flags);
    if (!flags.get_string("flight-out").empty() ||
        flags.get_int("audit-every") > 0)
      verify::set_flight_enabled(true);
    const std::size_t threads = tools::apply_threads_flag(flags);
    tools::apply_run_control_flags(flags, control);
    tools::apply_resource_flags(flags);
    // SIGINT/SIGTERM stop the sweep between replays; whatever was
    // simulated so far is flushed with "interrupted": true and exit 11.
    util::install_signal_stop(control);
    const std::string path = flags.get_string("workload");
    const std::string resume_path = flags.get_string("resume");
    if (path.empty() == resume_path.empty()) {
      std::fprintf(stderr,
                   "exactly one of --workload / --resume is required; see "
                   "--help\n");
      return 2;
    }
    sim::RunWorkload workload;
    if (!resume_path.empty()) {
      // A checkpoint carries the interrupted run's full iteration
      // history — enough to drive every what-if replay without
      // re-running the algorithm.
      const ckpt::RunState state = ckpt::load_checkpoint_file(resume_path);
      workload.algorithm = state.meta.algorithm;
      workload.dataset = resume_path;
      workload.iterations.reserve(state.snapshot.iterations.size());
      for (const auto& it : state.snapshot.iterations)
        workload.iterations.push_back(it.to_work());
    } else {
      workload = sim::load_workload_csv_file(path);
    }
    std::printf("workload: %s on %s, %zu iterations, %llu edge relaxations\n",
                workload.algorithm.c_str(), workload.dataset.c_str(),
                workload.iterations.size(),
                static_cast<unsigned long long>(
                    workload.total_edges_relaxed()));

    std::vector<sim::DeviceSpec> devices;
    if (const auto file = flags.get_string("device-file"); !file.empty()) {
      devices.push_back(sim::load_device_config_file(file));
    } else {
      devices.push_back(sim::DeviceSpec::jetson_tk1());
      devices.push_back(sim::DeviceSpec::jetson_tx1());
    }
    const auto stride = static_cast<std::size_t>(flags.get_int("freq-stride"));

    util::TextTable table;
    table.set_header({"device", "dvfs", "seconds", "avg_power_w", "energy_J",
                      "EDP"});
    const std::string report_path = flags.get_string("report-out");
    std::optional<sim::RunReport> report_run;
    std::string report_device;
    for (const auto& device : devices) {
      auto emit = [&](const sim::DvfsPolicy& policy) {
        if (control.should_abort()) return;
        // The run feeding --report-out keeps its per-iteration reports.
        const bool keep = !report_path.empty() && !report_run.has_value();
        const auto report = sim::simulate_run(device, policy, workload,
                                              {.keep_iteration_reports = keep});
        const auto metrics = sim::compute_energy_metrics(report);
        table.add(device.name, policy.label(), report.total_seconds,
                  report.average_power_w, report.energy_joules, metrics.edp);
        if (keep) {
          report_run = report;
          report_device = device.name;
        }
      };
      emit(sim::DefaultGovernor());
      for (std::size_t ci = 0; ci < device.core_freq_menu_mhz.size();
           ci += stride) {
        for (std::size_t mi = 0; mi < device.mem_freq_menu_mhz.size();
             mi += stride) {
          emit(sim::PinnedDvfs({device.core_freq_menu_mhz[ci],
                                device.mem_freq_menu_mhz[mi]}));
        }
      }
    }
    const util::StopReason stop = control.reason();
    if (stop != util::StopReason::kNone)
      std::printf("sweep stopped early: %s\n", util::to_string(stop));
    std::printf("\n%s", table.to_string().c_str());

    // --graph: finish the checkpointed run in-process and certify the
    // final result — answers "does this checkpoint still lead to a
    // provably correct answer?" without a separate sssp_tool invocation.
    bool certification_failed = false;
    obs::RunReportVerification verification;
    const std::string graph_path = flags.get_string("graph");
    if (!graph_path.empty() && resume_path.empty())
      std::fprintf(stderr, "warning: --graph is only used with --resume\n");
    const bool strict = flags.get_bool("verify-strict");
    if (!graph_path.empty() && !resume_path.empty() &&
        (flags.get_bool("verify") || strict) &&
        stop == util::StopReason::kNone) {
      const graph::CsrGraph g = tools::load_any_graph(graph_path);
      ckpt::RunState resume_state = ckpt::load_checkpoint_file(resume_path);
      core::SelfTuningOptions options;  // replaced by the checkpoint's
      options.audit_every = static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, flags.get_int("audit-every")));
      options.audit_abort = flags.get_bool("audit-abort");
      const ckpt::CheckpointedResult finished =
          ckpt::run_self_tuning_checkpointed(g, resume_state.meta.source,
                                             options, {}, &control,
                                             &resume_state);
      verification.audits_run = finished.result.audits_run;
      verification.audit_violations = finished.result.audit_violations;
      if (finished.audit_aborted) {
        std::printf("checkpoint completion run aborted by invariant audit\n");
        verification.requested = true;
        certification_failed = true;
      } else if (finished.stop != util::StopReason::kNone) {
        std::printf("checkpoint completion run stopped early: %s\n",
                    util::to_string(finished.stop));
      } else {
        verify::CertifyOptions copts;
        copts.strict = strict;
        const verify::Certificate cert = verify::certify(g, finished.result,
                                                         copts);
        std::printf("certification: %s (%s)\n",
                    cert.certified ? "PASS" : "FAILED",
                    cert.summary().c_str());
        if (!cert.certified)
          for (const verify::Violation& v : cert.samples)
            std::fprintf(stderr, "  violation: %s at v=%llu: %s\n",
                         verify::to_string(v.kind),
                         static_cast<unsigned long long>(v.vertex),
                         v.detail.c_str());
        verification.requested = true;
        verification.mode = strict ? "certify+dijkstra" : "certify";
        verification.certified = cert.certified;
        verification.vertices_checked = cert.vertices_checked;
        verification.edges_checked = cert.edges_checked;
        verification.violations = cert.violations;
        verification.seconds = cert.seconds;
        for (const verify::Violation& v : cert.samples)
          verification.samples.push_back(
              std::string(verify::to_string(v.kind)) + " at v=" +
              std::to_string(v.vertex) + ": " + v.detail);
        certification_failed = !cert.certified;
      }
    }
    if (const auto fpath = flags.get_string("flight-out"); !fpath.empty()) {
      const char* reason = certification_failed ? "certification-failed"
                                                : "replay-complete";
      if (verify::FlightRecorder::global().save(fpath, reason)) {
        verification.flight_recorder_path = fpath;
        std::printf("wrote flight recorder dump to %s\n", fpath.c_str());
      } else {
        std::fprintf(stderr, "flight recorder dump failed: %s\n",
                     fpath.c_str());
      }
    }

    if (report_run) {
      obs::RunReportMeta meta;
      meta.tool = "replay_tool";
      meta.algorithm = workload.algorithm;
      meta.dataset = workload.dataset;
      meta.device = report_device;
      meta.dvfs = "default";
      meta.threads = threads;
      meta.controller_seconds = report_run->controller_seconds;
      meta.interrupted = stop != util::StopReason::kNone;
      meta.outcome = stop == util::StopReason::kNone ? "completed"
                                                     : util::to_string(stop);
      meta.verification = verification;
      obs::save_run_report(report_path, meta, {}, &*report_run);
      std::printf("wrote run report to %s\n", report_path.c_str());
    }
    tools::print_fault_summary();
    tools::write_observability_outputs(flags);
    if (stop != util::StopReason::kNone)
      return tools::exit_code_for_stop(stop);
    if (certification_failed) return tools::kExitCertificationFailed;
  } catch (...) {
    return tools::exit_code_for_failure();
  }
  return 0;
}
