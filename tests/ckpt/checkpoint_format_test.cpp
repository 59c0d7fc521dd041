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

// A well-formed version-1 image — valid header checksum, and an options
// section in the v1 layout, which carried parallel_advance (u8) and
// parallel_threshold (u64) after measure_controller_time — must fail as
// a version error, never load with misread options.
TEST_F(CheckpointFormatTest, VersionOneImageIsAVersionError) {
  const auto u64_at = [](const std::string& b, std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, b.data() + at, sizeof v);
    return v;
  };
  const auto append_u64 = [](std::string& out, std::uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  // magic(8) | header checksum(8) | version u32, reserved u32,
  // section count u64 | sections: length u64, payload, checksum u64.
  constexpr std::size_t kHeader = 16, kSections = 32;
  const std::string& v2 = *bytes_;
  const std::size_t options_at = kSections + 16 + u64_at(v2, kSections);
  const std::string v2_options =
      v2.substr(options_at + 8, u64_at(v2, options_at));
  constexpr std::size_t kAfterMeasure = 8 + 8 + 8 + 1;
  std::string v1_options = v2_options.substr(0, kAfterMeasure);
  v1_options.push_back('\1');     // parallel_advance
  append_u64(v1_options, 4096);  // parallel_threshold
  v1_options += v2_options.substr(kAfterMeasure);

  std::string header = v2.substr(kHeader, kSections - kHeader);
  const std::uint32_t version = 1;
  std::memcpy(header.data(), &version, sizeof version);
  std::string v1 = v2.substr(0, 8);
  append_u64(v1, graph::fnv1a64(header.data(), header.size()));
  v1 += header;
  v1 += v2.substr(kSections, options_at - kSections);  // meta section
  append_u64(v1, v1_options.size());
  v1 += v1_options;
  append_u64(v1, graph::fnv1a64(v1_options.data(), v1_options.size()));
  v1 += v2.substr(options_at + 16 + v2_options.size());

  try {
    deserialize_checkpoint(v1);
    FAIL() << "version-1 checkpoint accepted";
  } catch (const graph::GraphIoError& e) {
    EXPECT_EQ(e.error_class(), graph::IoErrorClass::kVersion) << e.what();
  }
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
