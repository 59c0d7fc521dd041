// Format-level tests for the TSSSPCK1 checkpoint container
// (docs/ROBUSTNESS.md, "Checkpoint & recovery"): byte-stable
// round-trips, rejection of every kind of structural damage (short
// reads, flipped bits, trailing garbage, foreign graphs), and the
// atomicity of save_checkpoint_file under the ckpt.* crash failpoints.
#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/self_tuning.hpp"
#include "fault/failpoint.hpp"
#include "graph/binary_io.hpp"
#include "graph/io_error.hpp"
#include "tests/sssp/test_graphs.hpp"

namespace sssp::ckpt {
namespace {

using algo::testing::random_graph;

// One graph + mid-run state shared by the whole suite (building it is
// the expensive part).
class CheckpointFormatTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new graph::CsrGraph(random_graph(1200, 5.0, 99, 17));
    options_ = new core::SelfTuningOptions();
    options_->set_point = 400.0;
    options_->measure_controller_time = false;
    core::SelfTuningRun run(*graph_, 3, *options_);
    for (int i = 0; i < 6 && !run.done(); ++i) run.step();
    state_ = new RunState();
    state_->meta.algorithm = "self-tuning";
    state_->meta.graph_fingerprint = graph_fingerprint(*graph_);
    state_->meta.num_vertices = graph_->num_vertices();
    state_->meta.num_edges = graph_->num_edges();
    state_->meta.source = 3;
    state_->meta.iterations_completed = run.iterations_completed();
    state_->options = *options_;
    state_->snapshot = run.snapshot();
    bytes_ = new std::string(serialize_checkpoint(*state_));
  }
  static void TearDownTestSuite() {
    delete bytes_;
    delete state_;
    delete options_;
    delete graph_;
  }
  void TearDown() override {
    fault::FailpointRegistry::global().disarm_all();
  }

  static graph::CsrGraph* graph_;
  static core::SelfTuningOptions* options_;
  static RunState* state_;
  static std::string* bytes_;
};

graph::CsrGraph* CheckpointFormatTest::graph_ = nullptr;
core::SelfTuningOptions* CheckpointFormatTest::options_ = nullptr;
RunState* CheckpointFormatTest::state_ = nullptr;
std::string* CheckpointFormatTest::bytes_ = nullptr;

// Overwrites the u64 `at` bytes into section `index`'s payload
// (0 meta, 3 engine, 4 far queue) and re-checksums that section, so only
// the decoder's own bounds checks stand between a forged count and an
// allocation.
std::string forge_u64(std::string image, std::size_t index, std::size_t at,
                      std::uint64_t value) {
  const auto u64_at = [&](std::size_t pos) {
    std::uint64_t v = 0;
    std::memcpy(&v, image.data() + pos, sizeof v);
    return v;
  };
  std::size_t section = 32;  // magic, header checksum, header
  for (std::size_t i = 0; i < index; ++i) section += 16 + u64_at(section);
  const std::uint64_t size = u64_at(section);
  std::memcpy(image.data() + section + 8 + at, &value, sizeof value);
  const std::uint64_t checksum =
      graph::fnv1a64(image.data() + section + 8, size);
  std::memcpy(image.data() + section + 8 + size, &checksum, sizeof checksum);
  return image;
}

TEST_F(CheckpointFormatTest, RoundTripIsByteStable) {
  const RunState loaded = deserialize_checkpoint(*bytes_);
  EXPECT_EQ(loaded.meta, state_->meta);
  EXPECT_EQ(loaded.snapshot, state_->snapshot);
  // serialize(deserialize(b)) == b: the format has one canonical
  // encoding, so repeated save/load cycles cannot drift.
  EXPECT_EQ(serialize_checkpoint(loaded), *bytes_);
}

TEST_F(CheckpointFormatTest, LoadedStateValidatesAgainstItsGraph) {
  const RunState loaded = deserialize_checkpoint(*bytes_);
  EXPECT_NO_THROW(validate_against(loaded, *graph_));
}

TEST_F(CheckpointFormatTest, EveryStrictPrefixIsRejected) {
  // Exhaustive over the header region, sampled beyond it (a full sweep
  // of an ~100 KB checkpoint would deserialize 100k times).
  const std::size_t n = bytes_->size();
  auto expect_rejected = [&](std::size_t len) {
    EXPECT_THROW(deserialize_checkpoint(std::string_view(*bytes_).substr(
                     0, len)),
                 graph::GraphIoError)
        << "prefix of " << len << " / " << n << " bytes was accepted";
  };
  for (std::size_t len = 0; len < std::min<std::size_t>(n, 96); ++len)
    expect_rejected(len);
  for (std::size_t len = 96; len < n; len += 997) expect_rejected(len);
  expect_rejected(n - 1);
}

TEST_F(CheckpointFormatTest, SampledBitFlipsAreRejected) {
  for (std::size_t pos = 0; pos < bytes_->size(); pos += 491) {
    std::string damaged = *bytes_;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x08);
    EXPECT_THROW(deserialize_checkpoint(damaged), graph::GraphIoError)
        << "bit flip at byte " << pos << " was accepted";
  }
}

TEST_F(CheckpointFormatTest, TrailingGarbageIsRejected) {
  std::string damaged = *bytes_ + '\0';
  try {
    deserialize_checkpoint(damaged);
    FAIL() << "trailing byte accepted";
  } catch (const graph::GraphIoError& e) {
    EXPECT_EQ(e.error_class(), graph::IoErrorClass::kParse);
  }
}

TEST_F(CheckpointFormatTest, WrongMagicIsAVersionError) {
  std::string damaged = *bytes_;
  damaged[0] = 'X';
  try {
    deserialize_checkpoint(damaged);
    FAIL() << "wrong magic accepted";
  } catch (const graph::GraphIoError& e) {
    EXPECT_EQ(e.error_class(), graph::IoErrorClass::kVersion);
  }
}

// Rebuilds the suite's image as an older format version: the header
// carries `version`, the options section is `options` in that version's
// layout, and both are re-checksummed, so the image is well formed in
// every respect but its version.
std::string legacy_image(const std::string& image, std::uint32_t version,
                         const std::string& options) {
  const auto u64_at = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, image.data() + at, sizeof v);
    return v;
  };
  const auto append_u64 = [](std::string& out, std::uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  // magic(8) | header checksum(8) | version u32, reserved u32,
  // section count u64 | sections: length u64, payload, checksum u64.
  constexpr std::size_t kHeader = 16, kSections = 32;
  const std::size_t options_at = kSections + 16 + u64_at(kSections);
  std::string header = image.substr(kHeader, kSections - kHeader);
  std::memcpy(header.data(), &version, sizeof version);
  std::string out = image.substr(0, 8);
  append_u64(out, graph::fnv1a64(header.data(), header.size()));
  out += header;
  out += image.substr(kSections, options_at - kSections);  // meta section
  append_u64(out, options.size());
  out += options;
  append_u64(out, graph::fnv1a64(options.data(), options.size()));
  out += image.substr(options_at + 16 + u64_at(options_at));
  return out;
}

// The options section of versions 1 and 2: set_point, initial_delta,
// the iteration cap (u64), measure_controller_time, then — version 1
// only — parallel_advance (u8) and parallel_threshold (u64), then the
// three controller switches (u8 each) and the bootstrap count (u64).
std::string legacy_options(const RunState& state, bool version_one) {
  const auto append = [](std::string& out, const auto& v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  std::string out;
  append(out, state.options.set_point);
  append(out, state.options.initial_delta);
  append(out, std::uint64_t{0});
  out.push_back(state.options.measure_controller_time ? '\1' : '\0');
  if (version_one) {
    out.push_back('\1');
    append(out, std::uint64_t{4096});
  }
  out += "\1\1\1";
  append(out, std::uint64_t{5});
  return out;
}

void expect_version_error(const std::string& image, const char* what) {
  try {
    deserialize_checkpoint(image);
    FAIL() << what << " checkpoint accepted";
  } catch (const graph::GraphIoError& e) {
    EXPECT_EQ(e.error_class(), graph::IoErrorClass::kVersion) << e.what();
  }
}

// Well-formed images of the older versions must fail as version errors,
// never load with misread options.
TEST_F(CheckpointFormatTest, VersionOneImageIsAVersionError) {
  expect_version_error(
      legacy_image(*bytes_, 1, legacy_options(*state_, true)), "version-1");
}

TEST_F(CheckpointFormatTest, VersionTwoImageIsAVersionError) {
  expect_version_error(
      legacy_image(*bytes_, 2, legacy_options(*state_, false)), "version-2");
}

// Forged counts in checksum-valid sections fail as structured loader
// errors before anything is allocated: an engine vertex count that
// disagrees with the meta section, one that agrees but overruns the
// section's bytes (2^61 * 8 also wraps), and a far-queue partition count
// that overruns its section.
TEST_F(CheckpointFormatTest, ForgedCountsAreRejectedBeforeAllocation) {
  constexpr std::size_t kMeta = 0, kEngine = 3, kFar = 4;
  const std::size_t vertices_at = 8 + state_->meta.algorithm.size() + 8;
  const std::size_t edges_at = vertices_at + 8;
  const std::uint64_t huge = std::uint64_t{1} << 61;
  for (const std::uint64_t n : {huge, graph_->num_vertices() + 1}) {
    EXPECT_THROW(deserialize_checkpoint(forge_u64(*bytes_, kEngine, 0, n)),
                 graph::GraphIoError)
        << "engine n=" << n;
  }
  EXPECT_THROW(deserialize_checkpoint(forge_u64(
                   forge_u64(*bytes_, kMeta, vertices_at, huge), kEngine, 0,
                   huge)),
               graph::GraphIoError);
  EXPECT_THROW(deserialize_checkpoint(forge_u64(
                   forge_u64(*bytes_, kMeta, edges_at, std::uint64_t{1} << 40),
                   kFar, 8, std::uint64_t{1} << 39)),
               graph::GraphIoError);
}

// A finished run's snapshot has an empty frontier and round-trips byte
// for byte. Its zero-length arrays must be decoded without a memcpy
// into a null pointer (the crash-recovery CI job runs this suite under
// UBSan).
TEST_F(CheckpointFormatTest, FinishedRunRoundTrips) {
  core::SelfTuningRun run(*graph_, 3, *options_);
  while (!run.done()) run.step();
  RunState finished = *state_;
  finished.meta.iterations_completed = run.iterations_completed();
  finished.snapshot = run.snapshot();
  ASSERT_TRUE(finished.snapshot.engine.frontier.empty());
  const std::string bytes = serialize_checkpoint(finished);
  const RunState loaded = deserialize_checkpoint(bytes);
  EXPECT_TRUE(loaded.snapshot.engine.frontier.empty());
  EXPECT_EQ(serialize_checkpoint(loaded), bytes);
  EXPECT_NO_THROW(validate_against(loaded, *graph_));
}

TEST_F(CheckpointFormatTest, ForeignGraphIsRejected) {
  const auto other = random_graph(1200, 5.0, 99, 18);  // same shape, new edges
  const RunState loaded = deserialize_checkpoint(*bytes_);
  try {
    validate_against(loaded, other);
    FAIL() << "foreign graph accepted";
  } catch (const graph::GraphIoError& e) {
    EXPECT_EQ(e.error_class(), graph::IoErrorClass::kParse);
  }
}

TEST_F(CheckpointFormatTest, SourceOutOfRangeIsRejected) {
  RunState tampered = deserialize_checkpoint(*bytes_);
  tampered.meta.source =
      static_cast<graph::VertexId>(graph_->num_vertices());
  EXPECT_THROW(validate_against(tampered, *graph_), graph::GraphIoError);
}

TEST_F(CheckpointFormatTest, IterationCountMismatchIsRejected) {
  RunState tampered = deserialize_checkpoint(*bytes_);
  tampered.meta.iterations_completed += 1;
  EXPECT_THROW(validate_against(tampered, *graph_), graph::GraphIoError);
}

TEST_F(CheckpointFormatTest, FingerprintIsStructureSensitive) {
  EXPECT_EQ(graph_fingerprint(*graph_), graph_fingerprint(*graph_));
  EXPECT_NE(graph_fingerprint(*graph_),
            graph_fingerprint(random_graph(1200, 5.0, 99, 18)));
}

// --- file layer + crash failpoints ---

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST_F(CheckpointFormatTest, SaveLoadFileRoundTrips) {
  const std::string path = temp_path("ok.ckpt");
  const std::uint64_t written = save_checkpoint_file(path, *state_);
  EXPECT_EQ(written, bytes_->size());
  EXPECT_FALSE(file_exists(path + ".tmp"));  // renamed away
  const RunState loaded = load_checkpoint_file(path);
  EXPECT_EQ(serialize_checkpoint(loaded), *bytes_);
  std::remove(path.c_str());
}

TEST_F(CheckpointFormatTest, CrashBeforeWriteTouchesNothing) {
  const std::string path = temp_path("before.ckpt");
  std::remove(path.c_str());
  fault::FailpointRegistry::global().arm("ckpt.crash_before_write");
  EXPECT_THROW(save_checkpoint_file(path, *state_), InjectedCrash);
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST_F(CheckpointFormatTest, CrashAfterTmpPreservesPreviousCheckpoint) {
  const std::string path = temp_path("aftertmp.ckpt");
  save_checkpoint_file(path, *state_);  // the previous good checkpoint
  fault::FailpointRegistry::global().arm("ckpt.crash_after_tmp");
  EXPECT_THROW(save_checkpoint_file(path, *state_), InjectedCrash);
  fault::FailpointRegistry::global().disarm_all();
  // The crash landed between tmp-write and rename: the tmp file exists,
  // the final path still holds the previous complete checkpoint.
  EXPECT_TRUE(file_exists(path + ".tmp"));
  EXPECT_EQ(serialize_checkpoint(load_checkpoint_file(path)), *bytes_);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(CheckpointFormatTest, TornWriteLandsButNeverLoads) {
  const std::string path = temp_path("torn.ckpt");
  fault::FailpointRegistry::global().arm("ckpt.torn_write");
  EXPECT_THROW(save_checkpoint_file(path, *state_), InjectedCrash);
  fault::FailpointRegistry::global().disarm_all();
  // The torn file reached the final path (simulating a crash mid-flush
  // on a filesystem without atomic rename semantics) — the loader must
  // refuse it with a structured error, never return partial state.
  ASSERT_TRUE(file_exists(path));
  EXPECT_THROW(load_checkpoint_file(path), graph::GraphIoError);
  std::remove(path.c_str());
}

TEST_F(CheckpointFormatTest, BitFlipIsCaughtAtLoad) {
  const std::string path = temp_path("flip.ckpt");
  fault::FailpointRegistry::global().arm("ckpt.bit_flip");
  EXPECT_NO_THROW(save_checkpoint_file(path, *state_));  // write "succeeds"
  fault::FailpointRegistry::global().disarm_all();
  try {
    load_checkpoint_file(path);
    FAIL() << "flipped checkpoint accepted";
  } catch (const graph::GraphIoError& e) {
    EXPECT_EQ(e.error_class(), graph::IoErrorClass::kChecksum);
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointFormatTest, MissingFileIsAnOpenError) {
  try {
    load_checkpoint_file(temp_path("no_such.ckpt"));
    FAIL() << "missing file accepted";
  } catch (const graph::GraphIoError& e) {
    EXPECT_EQ(e.error_class(), graph::IoErrorClass::kOpen);
  }
}

}  // namespace
}  // namespace sssp::ckpt
