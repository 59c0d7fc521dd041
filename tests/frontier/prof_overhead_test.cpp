// The disarmed-profiling guarantee (docs/OBSERVABILITY.md): an
// SSSP_PROF_PHASE scope that no profiler armed costs one relaxed atomic
// load and a branch, so the scopes one advance sweep enters — the hot
// loop they instrument most densely — must cost at most 1% of the sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "frontier/engine.hpp"
#include "graph/degree_stats.hpp"
#include "graph/rmat.hpp"
#include "prof/profiler.hpp"
#include "util/timer.hpp"

namespace sssp::frontier {
namespace {

// Three steps, then entries × per-scope cost against the sweep time:
//   1. one armed sweep counts the phase-scope entries a sweep performs;
//   2. the median of five unprofiled sweeps gives the honest wall clock;
//   3. a tight loop measures what one disarmed scope costs.
TEST(ProfOverhead, DisarmedScopesCostAtMostOnePercentOfSweep) {
  graph::RmatOptions options;
  options.scale = 13;
  options.num_edges = 1u << 16;
  options.seed = 42;
  const graph::CsrGraph g = graph::generate_rmat(options);
  const graph::VertexId source = graph::max_degree_vertex(g);

  const auto sweep = [&] {
    NearFarEngine engine(g, source);
    while (!engine.frontier_empty()) {
      (void)engine.advance_and_filter();
      engine.bisect(graph::kInfiniteDistance);
    }
  };

  // 1. Armed sweep: total scope entries (all phases).
  prof::Profiler::Options profile_options;
  profile_options.use_perf = false;
  profile_options.use_rapl = false;
  prof::Profiler& profiler = prof::Profiler::global();
  profiler.start(profile_options);
  sweep();
  profiler.stop();
  std::uint64_t entries = 0;
  for (const auto& [name, phase] : profiler.report().phases)
    entries += phase.entries;
  ASSERT_GT(entries, 0u);

  // 2. Median unprofiled sweep time.
  std::vector<double> times;
  for (int i = 0; i < 5; ++i) {
    util::WallTimer timer;
    sweep();
    times.push_back(timer.elapsed_seconds());
  }
  std::sort(times.begin(), times.end());
  const double sweep_seconds = times[times.size() / 2];
  ASSERT_GT(sweep_seconds, 0.0);

  // 3. Disarmed per-scope cost.
  constexpr std::uint64_t kScopes = 20'000'000;
  util::WallTimer timer;
  for (std::uint64_t i = 0; i < kScopes; ++i) {
    SSSP_PROF_PHASE("test.overhead");
  }
  const double per_scope = timer.elapsed_seconds() / kScopes;

  const double overhead =
      static_cast<double>(entries) * per_scope / sweep_seconds;
  std::printf(
      "overhead check: %llu scopes/sweep x %.1f ns/scope = %.4f%% of "
      "%.4fs sweep (limit 1%%)\n",
      static_cast<unsigned long long>(entries), per_scope * 1e9,
      overhead * 100.0, sweep_seconds);
  EXPECT_LE(overhead, 0.01);
}

}  // namespace
}  // namespace sssp::frontier
