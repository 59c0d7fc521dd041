// The near-far operator pipeline (Gunrock-style), re-implemented on the
// host with explicit stages so a controller can observe and steer it.
//
// The engine owns the tentative-distance array and the frontier, and
// exposes the paper's four stages as methods:
//
//   advance_and_filter()  — stages 1+2: relax all out-edges of the
//                           frontier (min semantics), then deduplicate
//                           the updated frontier with an epoch-stamped
//                           mark array (Gunrock's bitmap).
//   bisect(threshold)     — stage 3: keep vertices with distance below
//                           the threshold as the next frontier; spill
//                           the rest for the caller's far queue.
//   demote(threshold)     — rebalancer helper: move frontier vertices at
//                           or above a *lowered* threshold to the spill
//                           (used when the controller shrinks delta).
//   inject(vertices)      — stage 4 completion: append vertices pulled
//                           from a far queue into the frontier.
//
// Correctness invariant: a vertex re-enters the updated frontier
// whenever its tentative distance improves, so *any* threshold policy
// yields exact shortest distances on termination (at worst extra work).
// This is what makes the dynamic-delta controller safe.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "util/run_control.hpp"

namespace sssp::frontier {

class NearFarEngine {
 public:
  struct Options {
    // Cooperative cancellation (docs/ROBUSTNESS.md): when set, advance
    // and bisect poll should_abort() at stage boundaries (and every few
    // thousand vertices) and throw util::StopRequested. A mid-stage
    // abort leaves the engine state torn — the run must be abandoned
    // and resumed from its last boundary checkpoint. Not owned; must
    // outlive the engine.
    util::RunControl* control = nullptr;
  };

  // The graph must outlive the engine. source must be a valid vertex.
  NearFarEngine(const graph::CsrGraph& graph, graph::VertexId source);
  NearFarEngine(const graph::CsrGraph& graph, graph::VertexId source,
                const Options& options);

  struct AdvanceResult {
    std::uint64_t x1 = 0;  // input frontier size
    std::uint64_t x2 = 0;  // edge work items (neighbor-list cardinality)
    // Relaxations that strictly lowered their target's tentative
    // distance. Relaxation is chained in frontier order, so a vertex
    // improved twice in one advance counts twice.
    std::uint64_t improving_relaxations = 0;
    std::uint64_t x3 = 0;  // deduplicated updated frontier size
  };

  // Runs stages 1+2 over the current frontier, relaxing in frontier
  // order × adjacency order on the calling thread. Afterwards the
  // frontier is *consumed*; the updated frontier (each improved vertex
  // once, in order of its first improvement) awaits bisect().
  AdvanceResult advance_and_filter();

  // Stage 3: moves updated-frontier vertices with distance < threshold
  // into the (now empty) frontier; the rest are appended to the spill
  // buffer. Returns the new frontier size (the paper's X4).
  std::uint64_t bisect(graph::Distance threshold);

  // Rebalance-down: removes frontier vertices with distance >= threshold
  // into the spill buffer. Returns the number of vertices scanned.
  std::uint64_t demote(graph::Distance threshold);

  // Appends far-queue vertices into the frontier. The caller must pass
  // only live (non-stale) vertices below the current threshold.
  void inject(std::span<const graph::VertexId> vertices);

  // Vertices spilled by the bisect()/demote() calls since the last
  // clear_spill(); their distances are current at spill time.
  std::span<const graph::VertexId> spill() const noexcept { return spill_; }
  void clear_spill() noexcept { spill_.clear(); }

  bool frontier_empty() const noexcept { return frontier_.empty(); }
  std::size_t frontier_size() const noexcept { return frontier_.size(); }
  std::span<const graph::VertexId> frontier() const noexcept {
    return frontier_;
  }

  const std::vector<graph::Distance>& distances() const noexcept {
    return dist_;
  }
  // Shortest-path-tree parents: parent_[v] is the source of the last
  // relaxation that improved v (kInvalidVertex if unreached; source for
  // the source), so the tree is exact on termination.
  const std::vector<graph::VertexId>& parents() const noexcept {
    return parent_;
  }
  graph::Distance distance(graph::VertexId v) const { return dist_[v]; }
  const graph::CsrGraph& graph() const noexcept { return *graph_; }
  graph::VertexId source() const noexcept { return source_; }

  // Maximum tentative distance across the current frontier, maintained
  // for free inside bisect/demote/inject (each already touches every
  // vertex involved). Used by the controller to re-anchor delta without
  // an extra device pass. 0 for an empty frontier.
  graph::Distance frontier_max_distance() const noexcept {
    return frontier_max_distance_;
  }

  // Total improving relaxations across the whole run (work-efficiency
  // metric: equals n-1 for Dijkstra-like behaviour, grows with redundant
  // re-relaxation when thresholds are too aggressive).
  std::uint64_t total_improving_relaxations() const noexcept {
    return total_improving_;
  }

  // Complete resumable engine state at an iteration boundary (frontier
  // consumed or refilled, no advance in flight). The dedup marks and
  // epoch are *not* part of the state: they are per-advance scratch —
  // every advance opens a fresh epoch — so restore() resets them.
  struct State {
    std::vector<graph::Distance> dist;
    std::vector<graph::VertexId> parent;
    std::vector<graph::VertexId> frontier;
    std::uint64_t total_improving = 0;
    graph::Distance frontier_max_distance = 0;

    friend bool operator==(const State&, const State&) = default;
  };
  State state() const;
  // Validated restore onto this engine's graph: array sizes must match
  // num_vertices() and every frontier id must be in range, else
  // std::invalid_argument. Scratch (marks, epoch, spill, updated
  // frontier) is reset; the next advance behaves exactly as it would
  // have in the original run.
  void restore(State&& state);

 private:
  // The advance proper: relaxes every out-edge of the frontier in
  // frontier order × adjacency order, appending each first-improved
  // vertex to updated_frontier_.
  AdvanceResult relax_frontier();

  // Stable-partitions `input` by distance < threshold: vertices below
  // overwrite `below` (cleared first) in input order, the rest are
  // appended to spill_, and frontier_max_distance_ is set to the max
  // distance of the below side. `input` must not alias `below`.
  void partition_by_distance(const std::vector<graph::VertexId>& input,
                             graph::Distance threshold,
                             std::vector<graph::VertexId>& below);

  const graph::CsrGraph* graph_;
  graph::VertexId source_;
  Options options_;
  std::vector<graph::Distance> dist_;
  std::vector<graph::VertexId> parent_;
  std::vector<graph::VertexId> frontier_;
  std::vector<graph::VertexId> updated_frontier_;
  std::vector<graph::VertexId> spill_;
  // Epoch-stamped dedup marks (Gunrock's filter bitmap, reset-free).
  std::vector<std::uint32_t> mark_;
  std::uint32_t epoch_ = 0;
  std::uint64_t total_improving_ = 0;
  graph::Distance frontier_max_distance_ = 0;
  std::vector<graph::VertexId> partition_scratch_;  // demote output buffer
};

}  // namespace sssp::frontier
