#include "frontier/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prof/profiler.hpp"
#include "res/budget.hpp"
#include "util/weight_math.hpp"

namespace sssp::frontier {

namespace {

// Instrument handles are resolved once and cached; every hot-path use
// is behind the metrics_enabled() branch.
struct EngineMetrics {
  obs::Counter& advances;
  obs::Counter& edges_relaxed;
  obs::Counter& improving;
  obs::Counter& bisects;
  obs::Histogram& frontier_size;

  static EngineMetrics& get() {
    static EngineMetrics m{
        obs::MetricsRegistry::global().counter("engine.advance.calls"),
        obs::MetricsRegistry::global().counter("engine.advance.edges"),
        obs::MetricsRegistry::global().counter("engine.advance.improving"),
        obs::MetricsRegistry::global().counter("engine.bisect.calls"),
        obs::MetricsRegistry::global().histogram("engine.frontier_size")};
    return m;
  }
};

// Headroom-checked high-water reserve (docs/ROBUSTNESS.md, "Resource
// budgets & exhaustion"): when the budget refuses, the reserve is
// skipped and the vector grows on demand — amortized-correct, just
// slower — instead of dying in std::bad_alloc at the reserve.
template <typename T>
void reserve_within_budget(std::vector<T>& vec, std::size_t count) {
  if (count <= vec.capacity()) return;
  if (!res::ResourceBudget::global().check_memory(
          static_cast<std::uint64_t>(count) * sizeof(T),
          "res.engine.alloc")) {
    if (obs::metrics_enabled())
      obs::MetricsRegistry::global().counter("engine.reserve.skipped").add(1);
    return;
  }
  vec.reserve(count);
}

}  // namespace

NearFarEngine::NearFarEngine(const graph::CsrGraph& graph,
                             graph::VertexId source)
    : NearFarEngine(graph, source, Options{}) {}

NearFarEngine::NearFarEngine(const graph::CsrGraph& graph,
                             graph::VertexId source, const Options& options)
    : graph_(&graph),
      source_(source),
      options_(options),
      dist_(graph.num_vertices(), graph::kInfiniteDistance),
      parent_(graph.num_vertices(), graph::kInvalidVertex),
      mark_(graph.num_vertices(), 0) {
  if (source >= graph.num_vertices())
    throw std::invalid_argument("NearFarEngine: source out of range");
  dist_[source] = 0;
  parent_[source] = source;
  frontier_.push_back(source);
}

NearFarEngine::AdvanceResult NearFarEngine::advance_and_filter() {
  {
    // The dedup filter itself is fused into the advance loop (the
    // epoch-stamped mark array); this span covers the standalone part
    // of the filter phase — bitmap epoch maintenance. See
    // docs/OBSERVABILITY.md for how to read the fused trace.
    SSSP_TRACE_SPAN("filter");
    SSSP_PROF_PHASE("filter");
    updated_frontier_.clear();
    reserve_within_budget(updated_frontier_, updated_high_water_);
    ++epoch_;
    if (epoch_ == 0) {  // wrapped: reset marks once every 2^32 iterations
      std::fill(mark_.begin(), mark_.end(), 0);
      epoch_ = 1;
    }
  }
  AdvanceResult result;
  {
    SSSP_TRACE_SPAN("advance");
    SSSP_PROF_PHASE("advance");
    result = relax_frontier();
  }
  total_improving_ += result.improving_relaxations;
  updated_high_water_ = std::max<std::size_t>(updated_high_water_, result.x3);
  frontier_.clear();
  if (obs::metrics_enabled()) {
    EngineMetrics& m = EngineMetrics::get();
    m.advances.add();
    m.edges_relaxed.add(result.x2);
    m.improving.add(result.improving_relaxations);
    m.frontier_size.record(static_cast<double>(result.x1));
  }
  return result;
}

NearFarEngine::AdvanceResult NearFarEngine::relax_frontier() {
  AdvanceResult result;
  result.x1 = frontier_.size();
  for (std::size_t fi = 0; fi < frontier_.size(); ++fi) {
    if (options_.control != nullptr && (fi & 4095u) == 0 &&
        options_.control->should_abort())
      throw util::StopRequested(options_.control->reason());
    const graph::VertexId u = frontier_[fi];
    const auto neighbors = graph_->neighbors(u);
    const auto weights = graph_->weights_of(u);
    result.x2 += neighbors.size();
    const graph::Distance du = dist_[u];
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const graph::VertexId v = neighbors[i];
      const graph::Distance nd = util::saturating_add(du, weights[i]);
      if (nd < dist_[v]) {
        dist_[v] = nd;
        parent_[v] = u;
        ++result.improving_relaxations;
        if (mark_[v] != epoch_) {
          mark_[v] = epoch_;
          updated_frontier_.push_back(v);
        }
      }
    }
  }
  result.x3 = updated_frontier_.size();
  return result;
}

void NearFarEngine::partition_by_distance(
    const std::vector<graph::VertexId>& input, graph::Distance threshold,
    std::vector<graph::VertexId>& below) {
  below.clear();
  frontier_max_distance_ = 0;
  reserve_within_budget(spill_, spill_high_water_);
  for (const graph::VertexId v : input) {
    const graph::Distance d = dist_[v];
    if (d < threshold) {
      below.push_back(v);
      frontier_max_distance_ = std::max(frontier_max_distance_, d);
    } else {
      spill_.push_back(v);
    }
  }
  spill_high_water_ = std::max(spill_high_water_, spill_.size());
}

std::uint64_t NearFarEngine::bisect(graph::Distance threshold) {
  SSSP_TRACE_SPAN("bisect");
  SSSP_PROF_PHASE("bisect");
  if (options_.control != nullptr && options_.control->should_abort())
    throw util::StopRequested(options_.control->reason());
  if (obs::metrics_enabled()) EngineMetrics::get().bisects.add();
  // advance_and_filter() left the frontier empty; refill the near side.
  partition_by_distance(updated_frontier_, threshold, frontier_);
  updated_frontier_.clear();
  return frontier_.size();
}

std::uint64_t NearFarEngine::demote(graph::Distance threshold) {
  const std::uint64_t scanned = frontier_.size();
  partition_by_distance(frontier_, threshold, partition_scratch_);
  frontier_.swap(partition_scratch_);
  return scanned;
}

std::uint64_t NearFarEngine::demote_excess(std::size_t keep) {
  if (frontier_.size() <= keep) return 0;
  const std::uint64_t spilled = frontier_.size() - keep;
  spill_.insert(spill_.end(), frontier_.begin() + static_cast<std::ptrdiff_t>(keep),
                frontier_.end());
  spill_high_water_ = std::max(spill_high_water_, spill_.size());
  frontier_.resize(keep);
  frontier_max_distance_ = 0;
  for (const graph::VertexId v : frontier_)
    frontier_max_distance_ = std::max(frontier_max_distance_, dist_[v]);
  return spilled;
}

void NearFarEngine::inject(std::span<const graph::VertexId> vertices) {
  reserve_within_budget(frontier_, frontier_.size() + vertices.size());
  for (const graph::VertexId v : vertices) {
    frontier_.push_back(v);
    frontier_max_distance_ = std::max(frontier_max_distance_, dist_[v]);
  }
}

NearFarEngine::State NearFarEngine::state() const {
  State state;
  state.dist = dist_;
  state.parent = parent_;
  state.frontier = frontier_;
  state.total_improving = total_improving_;
  state.frontier_max_distance = frontier_max_distance_;
  return state;
}

void NearFarEngine::restore(State&& state) {
  const std::size_t n = graph_->num_vertices();
  if (state.dist.size() != n || state.parent.size() != n)
    throw std::invalid_argument(
        "NearFarEngine: restore state does not match graph size");
  for (const graph::VertexId v : state.frontier)
    if (v >= n)
      throw std::invalid_argument(
          "NearFarEngine: restore frontier vertex out of range");
  dist_ = std::move(state.dist);
  parent_ = std::move(state.parent);
  frontier_ = std::move(state.frontier);
  total_improving_ = state.total_improving;
  frontier_max_distance_ = state.frontier_max_distance;
  // Per-advance scratch restarts clean; epoch 0 means the next advance
  // opens epoch 1 against all-zero marks, exactly like a fresh engine.
  std::fill(mark_.begin(), mark_.end(), 0);
  epoch_ = 0;
  updated_frontier_.clear();
  spill_.clear();
}

}  // namespace sssp::frontier
