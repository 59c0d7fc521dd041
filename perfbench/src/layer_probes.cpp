// Layer probes of the traced run: calls into single layers' public
// functions that no end-to-end sample isolates.
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/self_tuning.hpp"
#include "frontier/engine.hpp"
#include "graph/mmap_cache.hpp"
#include "ref_sweep.hpp"
#include "serve/protocol.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using sssp::graph::VertexId;

constexpr std::size_t kProbeSources = 4;
constexpr std::size_t kControllerSources = 16;
constexpr int kRepeats = 5;

// Median per-call microseconds of `call` over the items, repeated.
template <typename Items, typename Fn>
double per_call_us(const Items& items, Fn&& call) {
  std::vector<double> rounds;
  for (int r = 0; r < kRepeats; ++r) {
    const Clock::time_point start = Clock::now();
    for (const auto& item : items) call(item);
    rounds.push_back(ms_between(start, Clock::now()) * 1e3 /
                     static_cast<double>(items.size()));
  }
  return quantile(rounds, 0.5);
}

}  // namespace

ProbeStats run_layer_probes(Context& ctx, const std::string& graph_path,
                            const ServeStats& serve) {
  ProbeStats probes;
  const sssp::graph::CsrGraph& g = *ctx.graph;

  // graph: the supervised server's load path.
  std::vector<double> mmap_ms;
  for (int r = 0; r < kRepeats; ++r) {
    const Clock::time_point start = Clock::now();
    const ScopedSpan span(ctx.spans, "graph.mmap_open", "graph");
    const sssp::graph::MmapGraph mapped =
        sssp::graph::MmapGraph::open(graph_path);
    mmap_ms.push_back(ms_between(start, Clock::now()));
  }
  probes.load_mmap_ms = quantile(mmap_ms, 0.5);

  // frontier: advance_and_filter then bisect at infinity until the
  // frontier empties, as bench_tool's overhead check sweeps.
  std::vector<double> advance_ref, bisect_ref, advance_ms, bisect_ms;
  double edges = 0.0, bytes = 0.0;
  for (std::size_t s = 0; s < kProbeSources; ++s) {
    ctx.spans->set_sample(s);
    const std::size_t before = ctx.ref->point(ctx.spans);
    sssp::frontier::NearFarEngine engine(g, ctx.sources[s]);
    double adv = 0.0, bis = 0.0;
    std::uint64_t x1 = 0, x2 = 0;
    while (!engine.frontier_empty()) {
      Clock::time_point start = Clock::now();
      sssp::frontier::NearFarEngine::AdvanceResult step;
      {
        const ScopedSpan span(ctx.spans, "frontier.advance", "frontier");
        step = engine.advance_and_filter();
      }
      const Clock::time_point mid = Clock::now();
      {
        const ScopedSpan span(ctx.spans, "frontier.bisect", "frontier");
        engine.bisect(sssp::graph::kInfiniteDistance);
      }
      adv += ms_between(start, mid);
      bis += ms_between(mid, Clock::now());
      x1 += step.x1;
      x2 += step.x2;
    }
    ctx.ref->point(ctx.spans);
    const double ref = ctx.ref->around(before);
    advance_ms.push_back(adv);
    bisect_ms.push_back(bis);
    advance_ref.push_back(adv / ref);
    bisect_ref.push_back(bis / ref);
    edges += static_cast<double>(x2);
    // Computed, not measured: per frontier vertex its two offsets and
    // its distance; per edge its target, weight and target distance.
    bytes += static_cast<double>(x1) *
                 (2 * sizeof(sssp::graph::EdgeIndex) +
                  sizeof(sssp::graph::Distance)) +
             static_cast<double>(x2) *
                 (sizeof(VertexId) + sizeof(sssp::graph::Weight) +
                  sizeof(sssp::graph::Distance));
  }
  probes.advance_ref = quantile(advance_ref, 0.5);
  probes.bisect_ref = quantile(bisect_ref, 0.5);
  probes.advance_ms = quantile(advance_ms, 0.5);
  probes.bisect_ms = quantile(bisect_ms, 0.5);
  probes.engine_edges = edges / kProbeSources;
  probes.engine_bytes_mb = bytes / kProbeSources / (1024.0 * 1024.0);

  // core: controller time as a share of solve time, with the
  // controller clock on.
  sssp::core::SelfTuningOptions options;
  options.set_point = sssp::serve::ServerOptions{}.set_point;
  options.measure_controller_time = true;
  double controller_s = 0.0, solve_ms = 0.0;
  for (std::size_t s = 0; s < kControllerSources; ++s) {
    const VertexId source = ctx.sources[s];
    const Clock::time_point start = Clock::now();
    const ScopedSpan span(ctx.spans, "core.self_tuning", "core");
    const sssp::algo::SsspResult r =
        sssp::core::self_tuning_sssp(g, source, options);
    solve_ms += ms_between(start, Clock::now());
    controller_s += r.controller_seconds;
  }
  probes.controller_share = solve_ms > 0.0 ? controller_s * 1e3 / solve_ms : 0.0;

  // serve: the wire codec on the workload's own lines.
  std::size_t sink = 0;
  probes.parse_us = per_call_us(serve.request_lines, [&](const std::string& l) {
    sink += sssp::serve::parse_request(l, g.num_vertices()).ok ? 1 : 0;
  });
  probes.format_us =
      per_call_us(serve.responses, [&](const sssp::serve::Response& r) {
        sink += sssp::serve::format_response(r).size();
      });
  if (sink == 0) ctx.tally.fail("serve codec probe produced nothing");
  return probes;
}

}  // namespace perfbench
