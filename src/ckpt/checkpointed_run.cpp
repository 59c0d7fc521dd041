#include "ckpt/checkpointed_run.hpp"

#include <memory>
#include <utility>

#include "fault/failpoint.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "verify/auditor.hpp"

namespace sssp::ckpt {

CheckpointedResult run_self_tuning_checkpointed(
    const graph::CsrGraph& graph, graph::VertexId source,
    const core::SelfTuningOptions& options, const CheckpointPolicy& policy,
    util::RunControl* control, RunState* resume) {
  CheckpointedResult out;
  core::SelfTuningOptions effective = options;
  effective.control = control;

  std::unique_ptr<core::SelfTuningRun> run;
  if (resume != nullptr) {
    validate_against(*resume, graph);
    // The stored options drive the resumed run — the resuming process's
    // own flags must not fork the trajectory. Only the control hook is
    // live process state.
    effective = resume->options;
    effective.control = control;
    // The audit knobs are live process state like `control` — they
    // never alter the trajectory (reads only, unless a real fault
    // trips), so the resuming process's flags apply.
    effective.audit_every = options.audit_every;
    effective.audit_abort = options.audit_abort;
    // Realign the armed failpoints' hit counters and probability
    // streams so injected-fault schedules continue where they left off.
    fault::FailpointRegistry::global().restore_runtime(resume->failpoints);
    out.resumed = true;
    out.resumed_from_iteration = resume->meta.iterations_completed;
    if (obs::metrics_enabled())
      obs::MetricsRegistry::global().counter("checkpoint.resumes").add();
    SSSP_LOG(kInfo) << "resuming self-tuning run from iteration "
                    << resume->meta.iterations_completed;
    run = std::make_unique<core::SelfTuningRun>(
        graph, effective, std::move(resume->snapshot));
  } else {
    run = std::make_unique<core::SelfTuningRun>(graph, source, effective);
  }

  const bool checkpointing = !policy.path.empty();
  // The fingerprint hashes the whole graph; compute it once, not per
  // checkpoint.
  const std::uint64_t fingerprint =
      checkpointing ? graph_fingerprint(graph) : 0;
  const auto write_checkpoint = [&] {
    RunState state;
    state.snapshot = run->snapshot();
    state.meta.algorithm = "self-tuning";
    state.meta.graph_fingerprint = fingerprint;
    state.meta.num_vertices = graph.num_vertices();
    state.meta.num_edges = graph.num_edges();
    state.meta.source = state.snapshot.source;
    state.meta.iterations_completed = run->iterations_completed();
    state.options = effective;
    state.options.control = nullptr;
    state.failpoints = fault::FailpointRegistry::global().capture_runtime();
    out.checkpoint_bytes += save_checkpoint_file(policy.path, state);
    ++out.checkpoints_written;
  };

  util::WallTimer cadence_timer;
  std::uint64_t iterations_since_write = 0;
  try {
    while (!run->done()) {
      if (control != nullptr) {
        const util::StopReason reason =
            control->poll_iteration(run->total_improving_relaxations());
        if (reason != util::StopReason::kNone) {
          out.stop = reason;
          break;
        }
      }
      if (!run->step()) break;
      if (!checkpointing) continue;
      ++iterations_since_write;
      const bool due_iterations = policy.every_iterations > 0 &&
                                  iterations_since_write >=
                                      policy.every_iterations;
      const bool due_time =
          policy.every_seconds > 0.0 &&
          cadence_timer.elapsed_seconds() >= policy.every_seconds;
      if (due_iterations || due_time) {
        write_checkpoint();
        iterations_since_write = 0;
        cadence_timer.reset();
      }
    }
  } catch (const verify::AuditViolation& violation) {
    // Audit-abort trips at the iteration boundary, after the iteration
    // was recorded: the run state is intact and checkpointable, unlike
    // a mid-stage StopRequested.
    out.audit_aborted = true;
    SSSP_LOG(kError) << violation.what()
                     << "; stopping at the iteration boundary";
  } catch (const util::StopRequested& stopped) {
    // The stop landed inside a stage: the run state is torn, so it must
    // not be checkpointed — the last cadence write is the resume point.
    out.stop = stopped.reason();
    out.stopped_mid_iteration = true;
    SSSP_LOG(kWarn) << "run aborted mid-iteration ("
                    << util::to_string(stopped.reason())
                    << "); resume from the last checkpoint";
  }

  if (((out.stop != util::StopReason::kNone && !out.stopped_mid_iteration) ||
       out.audit_aborted) &&
      checkpointing) {
    // Clean boundary stop (or audit abort, which also lands on a
    // boundary): capture the freshest possible resume point.
    write_checkpoint();
  }

  out.result = run->take_result();
  return out;
}

}  // namespace sssp::ckpt
