#include "sssp/batch_engine.hpp"

#include <iterator>
#include <stdexcept>
#include <string>

#include "fault/failpoint.hpp"
#include "obs/metrics.hpp"
#include "res/budget.hpp"
#include "sssp/near_far.hpp"
#include "util/thread_pool.hpp"

namespace sssp::algo {

namespace {

struct BatchMetrics {
  obs::Counter& runs;
  obs::Histogram& lanes;

  static BatchMetrics& get() {
    static BatchMetrics m{
        obs::MetricsRegistry::global().counter("batch.runs"),
        obs::MetricsRegistry::global().histogram("batch.lanes")};
    return m;
  }
};

}  // namespace

BatchResult run_batch(const graph::CsrGraph& graph,
                      std::span<const graph::VertexId> sources,
                      const BatchOptions& options) {
  if (sources.empty())
    throw std::invalid_argument("run_batch: no sources");
  if (sources.size() > kMaxBatchLanes)
    throw std::invalid_argument(
        "run_batch: more than kMaxBatchLanes (" +
        std::to_string(kMaxBatchLanes) + ") sources");
  for (const graph::VertexId source : sources)
    if (source >= graph.num_vertices())
      throw std::invalid_argument("run_batch: source out of range");

  // Memory-budget degrade: shrink K (docs/ROBUSTNESS.md, "Resource
  // budgets & exhaustion"). The dominant batch footprint is the
  // per-lane state — distances (u64) + parents (u32) per vertex per
  // lane — and it scales linearly with K, so when the whole batch does
  // not fit the budget we split the sources in half and run two
  // sub-batches sequentially. Lanes are computed independently of each
  // other's presence (header contract), so the per-lane results are
  // identical to the unsplit batch; only concurrency is lost. A single
  // lane is never refused: K=1 is the service's baseline footprint.
  if (sources.size() > 1) {
    const std::uint64_t lane_bytes =
        static_cast<std::uint64_t>(graph.num_vertices()) *
        (sizeof(graph::Distance) + sizeof(graph::VertexId));
    if (!res::ResourceBudget::global().check_memory(
            lane_bytes * sources.size(), "res.batch.alloc")) {
      if (obs::metrics_enabled())
        obs::MetricsRegistry::global().counter("batch.split.memory").add(1);
      const std::size_t mid = sources.size() / 2;
      BatchResult left = run_batch(graph, sources.subspan(0, mid), options);
      BatchResult right = run_batch(graph, sources.subspan(mid), options);
      left.lanes.insert(left.lanes.end(),
                        std::make_move_iterator(right.lanes.begin()),
                        std::make_move_iterator(right.lanes.end()));
      return left;
    }
  }

  BatchResult out;
  out.lanes.resize(sources.size());
  // One serial near-far run per lane; the pool's dynamic chunk claiming
  // over lanes is the work-stealing.
  util::ThreadPool::global().for_each_chunk(
      sources.size(), [&](std::size_t l, std::size_t) {
        out.lanes[l] = near_far(graph, sources[l]);
      });

  // Single-lane mutation drill: corrupts lane 0's distance array after
  // the run, so the per-lane certifier must fail exactly that lane
  // (tests/sssp/batch_engine_test.cpp, soak batched leg).
  if (SSSP_FAILPOINT("batch.lane.flip_dist")) {
    SsspResult& lane = out.lanes.front();
    for (std::size_t v = 0; v < lane.distances.size(); ++v) {
      if (v == lane.source) continue;
      if (lane.distances[v] == 0 ||
          lane.distances[v] == graph::kInfiniteDistance)
        continue;
      lane.distances[v] ^= 1;
      break;
    }
  }

  if (obs::metrics_enabled()) {
    BatchMetrics& m = BatchMetrics::get();
    m.runs.add();
    m.lanes.record(static_cast<double>(sources.size()));
  }
  return out;
}

}  // namespace sssp::algo
