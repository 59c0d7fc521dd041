// The checkpointed self-tuning driver: wraps SelfTuningRun's stepper
// with a checkpoint cadence and the run-control hooks, so tools get
// deadline/signal/stall handling and kill-and-resume in one call.
//
// Exactness: checkpoints are taken at iteration boundaries only and the
// ckpt.* failpoints draw from their own streams, so writing (or not
// writing) checkpoints never perturbs the algorithm's trajectory. A
// resumed run therefore byte-reproduces the uninterrupted run's
// distances, parents, per-iteration statistics, and controller CSV
// (see docs/ROBUSTNESS.md, "Checkpoint & recovery").
#pragma once

#include <cstdint>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "core/self_tuning.hpp"
#include "graph/csr.hpp"
#include "sssp/result.hpp"
#include "util/run_control.hpp"

namespace sssp::ckpt {

struct CheckpointPolicy {
  // Destination file; empty disables checkpointing entirely.
  std::string path;
  // Write after every N completed iterations (0 = no iteration cadence).
  std::uint64_t every_iterations = 0;
  // Write when this much wall-clock has passed since the last write
  // (0 = no time cadence). A run that stops early at a clean iteration
  // boundary (deadline/stall/interrupt caught between steps, or an
  // audit abort) always writes a final checkpoint.
  double every_seconds = 0.0;
};

struct CheckpointedResult {
  algo::SsspResult result;
  // Why the run ended early (kNone = ran to completion).
  util::StopReason stop = util::StopReason::kNone;
  // True when the stop landed mid-iteration: the live state was torn,
  // so no final checkpoint was written — the last cadence checkpoint is
  // the resume point — and result.distances are a partial view.
  bool stopped_mid_iteration = false;
  // True when the online invariant auditor tripped in audit-abort mode:
  // the run stopped at the (intact) iteration boundary, a final
  // checkpoint was written if checkpointing is on, and result.distances
  // are the partial state the auditor distrusted.
  bool audit_aborted = false;
  bool resumed = false;
  std::uint64_t resumed_from_iteration = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_bytes = 0;
};

// Runs (or resumes) self-tuning SSSP under the policy. When `resume` is
// non-null it must already be validated or validatable against `graph`
// (validate_against is called here); the stored options replace
// `options` (the interrupted run's trajectory must not fork), `source`
// is ignored in favor of the checkpoint's, and the armed failpoints'
// RNG streams are restored before the first step. `control` may be
// null. Throws InjectedCrash when a ckpt.* crash failpoint fires and
// graph::GraphIoError on checkpoint I/O failure.
CheckpointedResult run_self_tuning_checkpointed(
    const graph::CsrGraph& graph, graph::VertexId source,
    const core::SelfTuningOptions& options, const CheckpointPolicy& policy,
    util::RunControl* control, RunState* resume);

}  // namespace sssp::ckpt
