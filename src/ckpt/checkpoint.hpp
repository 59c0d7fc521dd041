// Crash-consistent checkpointing for long SSSP runs (docs/ROBUSTNESS.md,
// "Checkpoint & recovery").
//
// A checkpoint is the complete resumable state of a self-tuning run at
// an iteration boundary: the engine's distance/parent arrays and
// frontier, the partitioned far queue (boundaries included), the
// controller (both SGD models plus the health monitor), the iteration
// history, the effective run options, and the armed failpoints' RNG
// streams. Because every step of the run is deterministic at any
// thread count (the engine advances serially, and the far queue's
// pooled bulk push preserves input order) and the failpoint streams
// are restored alongside the algorithm state, a resumed run reproduces
// the uninterrupted run *exactly* — distances, parents, X1-X4
// trajectories, and controller CSVs byte-compare.
//
// On-disk format ("TSSSPCK1", version 2): a checksummed header followed
// by length-prefixed sections, each trailed by its own FNV-1a 64
// checksum — the same integrity discipline as the TSSSPGR2 binary graph
// format. Version 1 images, which carried the removed parallel-advance
// options, fail to load with IoErrorClass::kVersion. Writes are
// in-memory-serialize -> tmp -> rename, so a crash at any instant
// leaves either the previous complete checkpoint or a tmp file that is
// never read. Corruption (torn tail, flipped bit,
// foreign graph) is detected at load and reported as a structured
// graph::GraphIoError with format "checkpoint" — a damaged checkpoint
// can fail a resume, never corrupt an answer.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/self_tuning.hpp"
#include "fault/failpoint.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace sssp::ckpt {

// Thrown by the ckpt.* crash failpoints (crash_before_write,
// crash_after_tmp, torn_write) to simulate the process dying at that
// instant. Tools translate it into a distinct exit code and exit
// *without* flushing reports — the closest a test harness gets to
// kill -9 while staying deterministic.
class InjectedCrash : public std::runtime_error {
 public:
  explicit InjectedCrash(const std::string& failpoint)
      : std::runtime_error("injected crash at failpoint " + failpoint) {}
};

struct CheckpointMeta {
  std::string algorithm;  // "self-tuning" (the only checkpointable algo)
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  graph::VertexId source = 0;
  std::uint64_t iterations_completed = 0;

  friend bool operator==(const CheckpointMeta&,
                         const CheckpointMeta&) = default;
};

// Everything a process needs to continue the run. options.control is
// never serialized (it is process-local); the loader leaves it null.
struct RunState {
  CheckpointMeta meta;
  core::SelfTuningOptions options;
  core::SelfTuningRun::Snapshot snapshot;
  std::vector<fault::FailpointRuntime> failpoints;
};

// FNV-1a 64 over the graph's structure (sizes + offsets + targets +
// weights). Stored in every checkpoint and cross-checked on resume so a
// checkpoint can never be applied to a different graph.
std::uint64_t graph_fingerprint(const graph::CsrGraph& graph);

// In-memory (de)serialization. serialize is a pure function of the
// state — byte-stable, so save/load/save round-trips are bit-identical.
// deserialize throws graph::GraphIoError (format "checkpoint") on any
// structural damage: bad magic/version (kVersion), short data
// (kTruncated), checksum mismatch (kChecksum), semantic nonsense
// (kParse).
std::string serialize_checkpoint(const RunState& state);
RunState deserialize_checkpoint(std::string_view bytes);

// Cross-checks a loaded checkpoint against the graph it is about to
// drive (fingerprint, sizes, source range, algorithm). Throws
// graph::GraphIoError kParse on mismatch.
void validate_against(const RunState& state, const graph::CsrGraph& graph);

// Atomic checkpoint write: serialize, write `path + ".tmp"`, rename
// over `path`. Hosts the ckpt.* failpoints. Returns the byte size
// written; throws graph::GraphIoError kOpen on filesystem failure and
// InjectedCrash when a crash failpoint fires.
std::uint64_t save_checkpoint_file(const std::string& path,
                                   const RunState& state);

// Reads and deserializes a checkpoint file. Throws graph::GraphIoError
// (kOpen on unreadable, else as deserialize_checkpoint).
RunState load_checkpoint_file(const std::string& path);

}  // namespace sssp::ckpt
