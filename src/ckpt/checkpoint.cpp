#include "ckpt/checkpoint.hpp"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "graph/binary_io.hpp"
#include "graph/io_error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prof/profiler.hpp"
#include "res/budget.hpp"
#include "util/atomic_file.hpp"
#include "util/log.hpp"
#include "util/run_control.hpp"
#include "util/timer.hpp"

namespace sssp::ckpt {

namespace {

using graph::GraphIoError;
using graph::IoErrorClass;

constexpr char kMagic[8] = {'T', 'S', 'S', 'S', 'P', 'C', 'K', '1'};
// Version 2 dropped the parallel-advance fields from the options
// section, version 3 the iteration cap and the controller ablation
// switches; older images are rejected rather than misparsed.
constexpr std::uint32_t kVersion = 3;
// Section order is part of the format: meta, options, controller,
// engine, far queue, iterations, failpoints.
constexpr std::uint64_t kSectionCount = 7;

const char* const kFormat = "checkpoint";

struct CkptMetrics {
  obs::Counter& writes;
  obs::Counter& bytes;
  obs::Counter& loads;
  obs::Counter& load_failures;
  obs::Histogram& write_seconds;

  static CkptMetrics& get() {
    static CkptMetrics m{
        obs::MetricsRegistry::global().counter("checkpoint.writes"),
        obs::MetricsRegistry::global().counter("checkpoint.bytes"),
        obs::MetricsRegistry::global().counter("checkpoint.loads"),
        obs::MetricsRegistry::global().counter("checkpoint.load_failures"),
        obs::MetricsRegistry::global().histogram("checkpoint.write_seconds")};
    return m;
  }
};

// --- little-endian-on-every-supported-target primitive writers ---
// (The binary graph format makes the same host-order assumption; see
// graph/binary_io.cpp.)

void append_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void append_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void append_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

// Doubles travel as raw bit patterns: exact round-trip, no text
// formatting ambiguity.
void append_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  append_u64(out, bits);
}

void append_string(std::string& out, const std::string& s) {
  append_u64(out, s.size());
  out.append(s);
}

// Bounds-checked reader over the raw bytes; every violation carries the
// byte offset where the data ran out or went bad.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  std::uint64_t offset() const noexcept { return pos_; }
  std::uint64_t remaining() const noexcept { return data_.size() - pos_; }

  const char* take(std::size_t size) {
    if (size > remaining())
      throw GraphIoError(IoErrorClass::kTruncated, kFormat,
                         "unexpected end of checkpoint data",
                         GraphIoError::kNoPosition, pos_);
    const char* p = data_.data() + pos_;
    pos_ += size;
    return p;
  }

  std::uint8_t read_u8() {
    return static_cast<std::uint8_t>(*take(1));
  }

  std::uint32_t read_u32() {
    std::uint32_t v;
    std::memcpy(&v, take(sizeof v), sizeof v);
    return v;
  }

  std::uint64_t read_u64() {
    std::uint64_t v;
    std::memcpy(&v, take(sizeof v), sizeof v);
    return v;
  }

  double read_f64() {
    const std::uint64_t bits = read_u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::string read_string(std::uint64_t max_size) {
    const std::uint64_t size = read_u64();
    if (size > max_size)
      throw GraphIoError(IoErrorClass::kParse, kFormat,
                         "string length " + std::to_string(size) +
                             " exceeds sanity bound",
                         GraphIoError::kNoPosition, pos_);
    const char* p = take(size);
    return std::string(p, size);
  }

 private:
  std::string_view data_;
  std::uint64_t pos_ = 0;
};

// Sections are length-prefixed and individually checksummed, so damage
// is localized to a byte offset and a torn tail can never masquerade as
// a shorter-but-valid checkpoint.
void append_section(std::string& out, const std::string& payload) {
  append_u64(out, payload.size());
  out.append(payload);
  append_u64(out, graph::fnv1a64(payload.data(), payload.size()));
}

std::string read_section(Cursor& cursor) {
  const std::uint64_t begin = cursor.offset();
  const std::uint64_t size = cursor.read_u64();
  if (size > cursor.remaining())
    throw GraphIoError(IoErrorClass::kTruncated, kFormat,
                       "section length " + std::to_string(size) +
                           " exceeds remaining data",
                       GraphIoError::kNoPosition, begin);
  const char* p = cursor.take(size);
  std::string payload(p, size);
  const std::uint64_t stored = cursor.read_u64();
  const std::uint64_t actual = graph::fnv1a64(payload.data(), payload.size());
  if (stored != actual)
    throw GraphIoError(IoErrorClass::kChecksum, kFormat,
                       "section checksum mismatch",
                       GraphIoError::kNoPosition, begin);
  return payload;
}

// --- per-section encoders/decoders ---

std::string encode_meta(const CheckpointMeta& meta) {
  std::string out;
  append_string(out, meta.algorithm);
  append_u64(out, meta.graph_fingerprint);
  append_u64(out, meta.num_vertices);
  append_u64(out, meta.num_edges);
  append_u32(out, meta.source);
  append_u64(out, meta.iterations_completed);
  return out;
}

CheckpointMeta decode_meta(Cursor& cursor) {
  CheckpointMeta meta;
  meta.algorithm = cursor.read_string(256);
  meta.graph_fingerprint = cursor.read_u64();
  meta.num_vertices = cursor.read_u64();
  meta.num_edges = cursor.read_u64();
  meta.source = cursor.read_u32();
  meta.iterations_completed = cursor.read_u64();
  return meta;
}

std::string encode_options(const core::SelfTuningOptions& options) {
  // options.control is process-local and deliberately not serialized.
  std::string out;
  append_f64(out, options.set_point);
  append_f64(out, options.initial_delta);
  append_u8(out, options.measure_controller_time ? 1 : 0);
  return out;
}

core::SelfTuningOptions decode_options(Cursor& cursor) {
  core::SelfTuningOptions options;
  options.set_point = cursor.read_f64();
  options.initial_delta = cursor.read_f64();
  options.measure_controller_time = cursor.read_u8() != 0;
  options.control = nullptr;
  return options;
}

void encode_sgd(std::string& out, const core::AdaptiveSgd::State& sgd) {
  append_f64(out, sgd.theta);
  append_f64(out, sgd.g_bar);
  append_f64(out, sgd.v_bar);
  append_f64(out, sgd.h_bar);
  append_f64(out, sgd.tau);
  append_f64(out, sgd.mu);
  append_u64(out, sgd.updates);
  append_u64(out, sgd.rejected);
}

core::AdaptiveSgd::State decode_sgd(Cursor& cursor) {
  core::AdaptiveSgd::State sgd;
  sgd.theta = cursor.read_f64();
  sgd.g_bar = cursor.read_f64();
  sgd.v_bar = cursor.read_f64();
  sgd.h_bar = cursor.read_f64();
  sgd.tau = cursor.read_f64();
  sgd.mu = cursor.read_f64();
  sgd.updates = cursor.read_u64();
  sgd.rejected = cursor.read_u64();
  return sgd;
}

std::string encode_controller(const core::DeltaController::State& controller) {
  std::string out;
  append_f64(out, controller.delta);
  append_f64(out, controller.last_alpha);
  append_f64(out, controller.pending_delta_change);
  append_f64(out, controller.pending_x4);
  append_u8(out, controller.has_pending ? 1 : 0);
  append_u8(out, controller.logged_nonfinite ? 1 : 0);
  encode_sgd(out, controller.advance_sgd);
  encode_sgd(out, controller.bisect_sgd);
  const core::ControllerHealth::State& health = controller.health;
  append_u8(out, health.control_state);
  append_u64(out, health.degradations);
  append_u64(out, health.recoveries);
  append_u64(out, health.rejected_inputs);
  append_u64(out, health.model_resets);
  append_u64(out, health.reject_streak);
  append_u64(out, health.pin_streak);
  append_u64(out, health.oscillation_streak);
  append_u64(out, health.healthy_streak);
  append_u64(out, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(health.last_step_sign)));
  return out;
}

core::DeltaController::State decode_controller(Cursor& cursor) {
  core::DeltaController::State controller;
  controller.delta = cursor.read_f64();
  controller.last_alpha = cursor.read_f64();
  controller.pending_delta_change = cursor.read_f64();
  controller.pending_x4 = cursor.read_f64();
  controller.has_pending = cursor.read_u8() != 0;
  controller.logged_nonfinite = cursor.read_u8() != 0;
  controller.advance_sgd = decode_sgd(cursor);
  controller.bisect_sgd = decode_sgd(cursor);
  core::ControllerHealth::State& health = controller.health;
  health.control_state = cursor.read_u8();
  health.degradations = cursor.read_u64();
  health.recoveries = cursor.read_u64();
  health.rejected_inputs = cursor.read_u64();
  health.model_resets = cursor.read_u64();
  health.reject_streak = cursor.read_u64();
  health.pin_streak = cursor.read_u64();
  health.oscillation_streak = cursor.read_u64();
  health.healthy_streak = cursor.read_u64();
  health.last_step_sign = static_cast<std::int32_t>(
      static_cast<std::int64_t>(cursor.read_u64()));
  return controller;
}

std::string encode_engine(const frontier::NearFarEngine::State& engine) {
  std::string out;
  const std::uint64_t n = engine.dist.size();
  append_u64(out, n);
  out.append(reinterpret_cast<const char*>(engine.dist.data()),
             n * sizeof(graph::Distance));
  out.append(reinterpret_cast<const char*>(engine.parent.data()),
             n * sizeof(graph::VertexId));
  append_u64(out, engine.frontier.size());
  out.append(reinterpret_cast<const char*>(engine.frontier.data()),
             engine.frontier.size() * sizeof(graph::VertexId));
  append_u64(out, engine.total_improving);
  append_u64(out, engine.frontier_max_distance);
  return out;
}

// Reads `count` raw elements. The declared count is checked against the
// bytes left before anything is allocated: a forged count is structural
// damage, not an allocation request (and count * sizeof(T) must not
// wrap).
template <typename T>
void read_array(Cursor& cursor, std::uint64_t count, std::vector<T>& out) {
  if (count > cursor.remaining() / sizeof(T))
    throw GraphIoError(IoErrorClass::kTruncated, kFormat,
                       "array length exceeds remaining data",
                       GraphIoError::kNoPosition, cursor.offset());
  out.resize(count);
  if (count != 0)
    std::memcpy(out.data(), cursor.take(count * sizeof(T)),
                count * sizeof(T));
}

frontier::NearFarEngine::State decode_engine(Cursor& cursor,
                                             std::uint64_t num_vertices) {
  frontier::NearFarEngine::State engine;
  const std::uint64_t n = cursor.read_u64();
  if (n != num_vertices)
    throw GraphIoError(IoErrorClass::kParse, kFormat,
                       "engine vertex count does not match the meta section",
                       GraphIoError::kNoPosition, cursor.offset());
  read_array(cursor, n, engine.dist);
  read_array(cursor, n, engine.parent);
  const std::uint64_t frontier_size = cursor.read_u64();
  if (frontier_size > n)
    throw GraphIoError(IoErrorClass::kParse, kFormat,
                       "frontier larger than vertex count",
                       GraphIoError::kNoPosition, cursor.offset());
  read_array(cursor, frontier_size, engine.frontier);
  engine.total_improving = cursor.read_u64();
  engine.frontier_max_distance = cursor.read_u64();
  return engine;
}

std::string encode_far(const frontier::FarQueue::State& far) {
  std::string out;
  append_u64(out, far.lower_bound);
  append_u64(out, far.bounds.size());
  for (std::size_t i = 0; i < far.bounds.size(); ++i) {
    append_u64(out, far.bounds[i]);
    const auto& entries = far.entries[i];
    append_u64(out, entries.size());
    for (const frontier::FarEntry& entry : entries) {
      append_u32(out, entry.vertex);
      append_u64(out, entry.distance);
    }
  }
  return out;
}

frontier::FarQueue::State decode_far(Cursor& cursor,
                                     std::uint64_t max_entries) {
  frontier::FarQueue::State far;
  far.lower_bound = cursor.read_u64();
  const std::uint64_t partitions = cursor.read_u64();
  if (partitions > max_entries + 2)
    throw GraphIoError(IoErrorClass::kParse, kFormat,
                       "far-queue partition count exceeds sanity bound",
                       GraphIoError::kNoPosition, cursor.offset());
  // 16 bytes per serialized partition header (bound + entry count).
  if (partitions > cursor.remaining() / 16)
    throw GraphIoError(IoErrorClass::kTruncated, kFormat,
                       "far-queue partition count exceeds remaining data",
                       GraphIoError::kNoPosition, cursor.offset());
  far.bounds.resize(partitions);
  far.entries.resize(partitions);
  for (std::uint64_t i = 0; i < partitions; ++i) {
    far.bounds[i] = cursor.read_u64();
    const std::uint64_t count = cursor.read_u64();
    // 12 bytes per serialized entry: a declared count beyond the
    // remaining bytes is structural damage, not an allocation request.
    if (count > cursor.remaining() / 12)
      throw GraphIoError(IoErrorClass::kTruncated, kFormat,
                         "far-queue entry count exceeds remaining data",
                         GraphIoError::kNoPosition, cursor.offset());
    auto& entries = far.entries[i];
    entries.resize(count);
    for (std::uint64_t j = 0; j < count; ++j) {
      entries[j].vertex = cursor.read_u32();
      entries[j].distance = cursor.read_u64();
    }
  }
  return far;
}

std::string encode_iterations(
    const std::vector<frontier::IterationStats>& iterations,
    double controller_seconds) {
  std::string out;
  append_u64(out, iterations.size());
  for (const frontier::IterationStats& stats : iterations) {
    append_u64(out, stats.x1);
    append_u64(out, stats.x2);
    append_u64(out, stats.x3);
    append_u64(out, stats.x4);
    append_u64(out, stats.improving_relaxations);
    append_u64(out, stats.far_queue_size);
    append_u64(out, stats.rebalance_items);
    append_f64(out, stats.controller_seconds);
    append_f64(out, stats.delta);
    append_f64(out, stats.degree_estimate);
    append_f64(out, stats.alpha_estimate);
    append_u8(out, stats.controller_degraded ? 1 : 0);
  }
  append_f64(out, controller_seconds);
  return out;
}

void decode_iterations(Cursor& cursor,
                       std::vector<frontier::IterationStats>& iterations,
                       double& controller_seconds) {
  const std::uint64_t count = cursor.read_u64();
  // 81 bytes per serialized iteration record.
  if (count > cursor.remaining() / 81)
    throw GraphIoError(IoErrorClass::kTruncated, kFormat,
                       "iteration count exceeds remaining data",
                       GraphIoError::kNoPosition, cursor.offset());
  iterations.resize(count);
  for (frontier::IterationStats& stats : iterations) {
    stats.x1 = cursor.read_u64();
    stats.x2 = cursor.read_u64();
    stats.x3 = cursor.read_u64();
    stats.x4 = cursor.read_u64();
    stats.improving_relaxations = cursor.read_u64();
    stats.far_queue_size = cursor.read_u64();
    stats.rebalance_items = cursor.read_u64();
    stats.controller_seconds = cursor.read_f64();
    stats.delta = cursor.read_f64();
    stats.degree_estimate = cursor.read_f64();
    stats.alpha_estimate = cursor.read_f64();
    stats.controller_degraded = cursor.read_u8() != 0;
  }
  controller_seconds = cursor.read_f64();
}

std::string encode_failpoints(
    const std::vector<fault::FailpointRuntime>& failpoints) {
  std::string out;
  append_u64(out, failpoints.size());
  for (const fault::FailpointRuntime& fp : failpoints) {
    append_string(out, fp.name);
    append_u8(out, fp.mode);
    append_u64(out, fp.hits);
    append_u64(out, fp.fires);
    append_u64(out, fp.rng_state);
  }
  return out;
}

std::vector<fault::FailpointRuntime> decode_failpoints(Cursor& cursor) {
  const std::uint64_t count = cursor.read_u64();
  if (count > 4096)
    throw GraphIoError(IoErrorClass::kParse, kFormat,
                       "failpoint count exceeds sanity bound",
                       GraphIoError::kNoPosition, cursor.offset());
  std::vector<fault::FailpointRuntime> failpoints(count);
  for (fault::FailpointRuntime& fp : failpoints) {
    fp.name = cursor.read_string(256);
    fp.mode = cursor.read_u8();
    fp.hits = cursor.read_u64();
    fp.fires = cursor.read_u64();
    fp.rng_state = cursor.read_u64();
  }
  return failpoints;
}

}  // namespace

std::uint64_t graph_fingerprint(const graph::CsrGraph& graph) {
  const auto offsets = graph.offsets();
  const auto targets = graph.targets();
  const auto weights = graph.weights();
  // Hash each array, then hash the digest of digests together with the
  // shape, so array boundaries cannot alias.
  std::uint64_t digest[5];
  digest[0] = graph.num_vertices();
  digest[1] = graph.num_edges();
  digest[2] = graph::fnv1a64(offsets.data(), offsets.size_bytes());
  digest[3] = graph::fnv1a64(targets.data(), targets.size_bytes());
  digest[4] = graph::fnv1a64(weights.data(), weights.size_bytes());
  return graph::fnv1a64(digest, sizeof digest);
}

std::string serialize_checkpoint(const RunState& state) {
  std::string out;
  out.append(kMagic, sizeof kMagic);
  std::string header;
  append_u32(header, kVersion);
  append_u32(header, 0);  // reserved
  append_u64(header, kSectionCount);
  append_u64(out, graph::fnv1a64(header.data(), header.size()));
  out.append(header);
  append_section(out, encode_meta(state.meta));
  append_section(out, encode_options(state.options));
  append_section(out, encode_controller(state.snapshot.controller));
  append_section(out, encode_engine(state.snapshot.engine));
  append_section(out, encode_far(state.snapshot.far));
  append_section(out, encode_iterations(state.snapshot.iterations,
                                        state.snapshot.controller_seconds));
  append_section(out, encode_failpoints(state.failpoints));
  return out;
}

RunState deserialize_checkpoint(std::string_view bytes) {
  Cursor cursor(bytes);
  const char* magic = cursor.take(sizeof kMagic);
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    throw GraphIoError(IoErrorClass::kVersion, kFormat,
                       "bad magic (not a checkpoint file)",
                       GraphIoError::kNoPosition, 0);
  const std::uint64_t stored_header_checksum = cursor.read_u64();
  const std::uint64_t header_begin = cursor.offset();
  const std::uint32_t version = cursor.read_u32();
  const std::uint32_t reserved = cursor.read_u32();
  const std::uint64_t section_count = cursor.read_u64();
  {
    std::string header;
    append_u32(header, version);
    append_u32(header, reserved);
    append_u64(header, section_count);
    if (graph::fnv1a64(header.data(), header.size()) != stored_header_checksum)
      throw GraphIoError(IoErrorClass::kChecksum, kFormat,
                         "header checksum mismatch",
                         GraphIoError::kNoPosition, header_begin);
  }
  if (version != kVersion)
    throw GraphIoError(IoErrorClass::kVersion, kFormat,
                       "unsupported checkpoint version " +
                           std::to_string(version),
                       GraphIoError::kNoPosition, header_begin);
  if (section_count != kSectionCount)
    throw GraphIoError(IoErrorClass::kParse, kFormat,
                       "unexpected section count " +
                           std::to_string(section_count),
                       GraphIoError::kNoPosition, header_begin);

  RunState state;
  {
    const std::string payload = read_section(cursor);
    Cursor section(payload);
    state.meta = decode_meta(section);
  }
  {
    const std::string payload = read_section(cursor);
    Cursor section(payload);
    state.options = decode_options(section);
  }
  {
    const std::string payload = read_section(cursor);
    Cursor section(payload);
    state.snapshot.controller = decode_controller(section);
  }
  {
    const std::string payload = read_section(cursor);
    Cursor section(payload);
    state.snapshot.engine = decode_engine(section, state.meta.num_vertices);
  }
  {
    const std::string payload = read_section(cursor);
    Cursor section(payload);
    state.snapshot.far =
        decode_far(section, state.meta.num_vertices + state.meta.num_edges);
  }
  {
    const std::string payload = read_section(cursor);
    Cursor section(payload);
    decode_iterations(section, state.snapshot.iterations,
                      state.snapshot.controller_seconds);
  }
  {
    const std::string payload = read_section(cursor);
    Cursor section(payload);
    state.failpoints = decode_failpoints(section);
  }
  if (cursor.remaining() != 0)
    throw GraphIoError(IoErrorClass::kParse, kFormat,
                       "trailing bytes after final section",
                       GraphIoError::kNoPosition, cursor.offset());
  state.snapshot.source = state.meta.source;
  return state;
}

void validate_against(const RunState& state, const graph::CsrGraph& graph) {
  if (state.meta.algorithm != "self-tuning")
    throw GraphIoError(IoErrorClass::kParse, kFormat,
                       "checkpoint is for algorithm '" +
                           state.meta.algorithm + "', not self-tuning");
  if (state.meta.num_vertices != graph.num_vertices() ||
      state.meta.num_edges != graph.num_edges())
    throw GraphIoError(
        IoErrorClass::kParse, kFormat,
        "checkpoint graph shape (" +
            std::to_string(state.meta.num_vertices) + " vertices, " +
            std::to_string(state.meta.num_edges) +
            " edges) does not match the loaded graph");
  if (state.meta.graph_fingerprint != graph_fingerprint(graph))
    throw GraphIoError(IoErrorClass::kParse, kFormat,
                       "checkpoint graph fingerprint does not match the "
                       "loaded graph");
  if (state.meta.source >= graph.num_vertices())
    throw GraphIoError(IoErrorClass::kParse, kFormat,
                       "checkpoint source vertex out of range");
  if (state.snapshot.iterations.size() != state.meta.iterations_completed)
    throw GraphIoError(IoErrorClass::kParse, kFormat,
                       "iteration history does not match the recorded "
                       "iteration count");
}

std::uint64_t save_checkpoint_file(const std::string& path,
                                   const RunState& state) {
  SSSP_TRACE_SPAN("checkpoint");
  SSSP_PROF_PHASE("checkpoint");
  util::WallTimer timer;
  // Crash failpoints simulate the process dying at the three interesting
  // instants of the write protocol (docs/ROBUSTNESS.md):
  //   crash_before_write — nothing touched; previous checkpoint intact.
  //   crash_after_tmp    — tmp written, rename skipped; previous intact.
  //   torn_write         — a half-length file lands at the *final* path
  //                        (simulates a torn sector): load must reject.
  //   bit_flip           — one flipped bit inside the payload: the
  //                        section checksum must catch it at load.
  if (SSSP_FAILPOINT("ckpt.crash_before_write"))
    throw InjectedCrash("ckpt.crash_before_write");
  std::string bytes = serialize_checkpoint(state);
  if (SSSP_FAILPOINT("ckpt.bit_flip") && !bytes.empty())
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  const bool torn = SSSP_FAILPOINT("ckpt.torn_write");
  if (torn) bytes.resize(bytes.size() / 2);

  // Scratch-disk budget gate: refuse a checkpoint that would not fit
  // the configured scratch allowance before writing a byte (structured
  // ResourceError → kExitResourceBudget, previous checkpoint intact).
  // The charge is released after the write: the budget bounds the
  // write in flight, not the long-term footprint of one file that
  // keeps being replaced in place.
  auto& budget = res::ResourceBudget::global();
  if (!budget.try_charge_scratch(bytes.size(), "res.ckpt.scratch"))
    throw res::ResourceError(res::ResourceKind::kScratch, "res.ckpt.scratch",
                             bytes.size(),
                             budget.scratch_limit() >= budget.scratch_used()
                                 ? budget.scratch_limit() -
                                       budget.scratch_used()
                                 : 0);
  struct ScratchRelease {
    res::ResourceBudget& budget;
    std::size_t bytes;
    ~ScratchRelease() { budget.release_scratch(bytes); }
  } scratch_release{budget, bytes.size()};

  // tmp+fsync+rename via util/atomic_file, which also handles short
  // writes, retries transient errors, and maps ENOSPC/EDQUOT to
  // DiskFullError (tools exit kExitDiskFull) with the tmp removed. The
  // signal-critical section is still needed: the handler's second-^C
  // hard exit could land between write and rename — tearing the
  // protocol from inside the process — so it is deferred to the
  // closing brace. A signal barrage during the window still yields
  // either the intact old checkpoint or a complete new one.
  util::ScopedSignalCritical in_write_window;
  // Injected fault: SIGINT/SIGTERM delivered mid-write. The first
  // signal only sets the cooperative stop flag; the write must finish
  // and produce a loadable checkpoint (tests raise the second signal
  // too and assert the deferred-exit path).
  if (SSSP_FAILPOINT("ckpt.signal_in_write")) std::raise(SIGINT);
  util::AtomicWriteOptions write_options;
  write_options.before_rename = [] {
    // Simulated death after the tmp is durable, before the rename: the
    // tmp is left behind (atomic_file contract for a throwing hook),
    // exactly like a real crash at this instant.
    if (SSSP_FAILPOINT("ckpt.crash_after_tmp"))
      throw InjectedCrash("ckpt.crash_after_tmp");
  };
  try {
    util::atomic_write_file(path, bytes, write_options);
  } catch (const util::DiskFullError&) {
    throw;  // dedicated exit code; tmp already removed
  } catch (const InjectedCrash&) {
    throw;
  } catch (const std::exception& e) {
    // Preserve the loader/saver error contract: environmental write
    // failures surface as structured GraphIoError (kOpen → exit 3).
    throw GraphIoError(IoErrorClass::kOpen, kFormat, e.what());
  }
  // The torn write has reached the final path — now the "process dies".
  if (torn) throw InjectedCrash("ckpt.torn_write");

  if (obs::metrics_enabled()) {
    CkptMetrics& m = CkptMetrics::get();
    m.writes.add();
    m.bytes.add(bytes.size());
    m.write_seconds.record(timer.elapsed_seconds());
  }
  SSSP_LOG(kDebug) << "checkpoint written: " << path << " (" << bytes.size()
                   << " bytes, iteration "
                   << state.meta.iterations_completed << ")";
  return bytes.size();
}

RunState load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (obs::metrics_enabled()) CkptMetrics::get().load_failures.add();
    throw GraphIoError(IoErrorClass::kOpen, kFormat,
                       "cannot open '" + path + "' for reading");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    if (obs::metrics_enabled()) CkptMetrics::get().load_failures.add();
    throw GraphIoError(IoErrorClass::kOpen, kFormat,
                       "read error on '" + path + "'");
  }
  try {
    RunState state = deserialize_checkpoint(bytes);
    if (obs::metrics_enabled()) CkptMetrics::get().loads.add();
    return state;
  } catch (const GraphIoError&) {
    if (obs::metrics_enabled()) CkptMetrics::get().load_failures.add();
    throw;
  }
}

}  // namespace sssp::ckpt
