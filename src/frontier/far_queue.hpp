// The far queue: vertices whose tentative distance exceeds the current
// threshold, postponed for later phases (paper Section 4.6).
//
// The queue is kept as a sequence of partitions ordered by vertex
// distance, partition i holding entries with B_{i-1} < d <= B_i; the
// last boundary is always MAX (kInfiniteDistance). Self-tuning seeds
// the first boundary with the average edge weight, and its controller
// periodically tightens the current partition's upper bound to
// B_{i-1} + P/alpha (Eq. 7) so that no single rebalance pull exceeds
// the parallelism set-point; to preserve correctness the boundary
// updates are monotone (they only decrease). Pulling below a threshold
// then touches only the partitions that intersect the range instead of
// scanning the whole queue — the efficiency claim of the paper's
// rebalancer.
//
// Seeded with first_bound == MAX, the queue is one MAX partition and
// every pull scans all of it: the flat queue of the baseline near-far
// (Davidson et al.), which never calls update_boundary.
//
// Entries are (vertex, distance-at-insertion) pairs. When a vertex's
// distance later improves, the improved copy re-enters the pipeline via
// the frontier, so any older copy is *stale*; staleness is detected at
// scan time by comparing the stored distance with the current one, and
// stale entries are dropped lazily during scans.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace sssp::frontier {

struct FarEntry {
  graph::VertexId vertex;
  graph::Distance distance;  // tentative distance when enqueued

  friend bool operator==(const FarEntry&, const FarEntry&) = default;
};

class FarQueue {
 public:
  // Seeds the boundary layout {first_bound, MAX} (Section 4.6: "two
  // partitions with their upper bounds initialized to average edge
  // weight and MAX_INT"), or the single partition {MAX} when
  // first_bound is kInfiniteDistance. first_bound must be positive.
  explicit FarQueue(graph::Distance first_bound);

  void push(graph::VertexId v, graph::Distance d);

  // Bulk push of an engine spill: entry i is (vertices[i],
  // current_distances[vertices[i]]), pushed in input order, so each
  // partition receives its entries in the order they appear in
  // `vertices`.
  void push_bulk(std::span<const graph::VertexId> vertices,
                 std::span<const graph::Distance> current_distances);

  // Moves live entries with distance < threshold into `frontier`,
  // dropping stale entries met along the way. Only partitions whose
  // range intersects [0, threshold) are scanned; returns the number of
  // entries scanned (the stage-4 work the simulator charges).
  std::uint64_t pull_below(graph::Distance threshold,
                           std::span<const graph::Distance> current_distances,
                           std::vector<graph::VertexId>& frontier);

  // Drains the current (first) partition: live entries are appended to
  // `frontier` (up to max_live of them), stale ones dropped. When the
  // partition is fully consumed it is removed and the next becomes
  // current; a count-limited pull that stops early leaves the remainder
  // in place (exhausted == false). The limit matters when distance ties
  // make a partition indivisible by boundaries — e.g. a whole BFS level
  // on the hop metric — and the set-point calls for only part of it.
  // This is the self-tuning bisect-far-queue: "instead of searching all
  // vertices ... only the partitions with the desired boundaries are
  // searched".
  struct PullResult {
    graph::Distance bound = 0;
    std::uint64_t scanned = 0;
    std::uint64_t pulled = 0;
    bool exhausted = false;  // partition fully consumed and removed
  };
  PullResult pull_front_partition(
      std::span<const graph::Distance> current_distances,
      std::vector<graph::VertexId>& frontier,
      std::uint64_t max_live = std::numeric_limits<std::uint64_t>::max());

  // Eq. 7: tighten the current (first) partition's upper bound toward
  // lower_bound + set_point / alpha. Monotone: the bound never grows.
  // Entries displaced above the new bound move to the next partition
  // (appending a fresh MAX partition when the current one is the last).
  // Returns the number of entries that moved partitions.
  std::uint64_t update_boundary(double set_point, double alpha);

  std::size_t size() const noexcept { return total_entries_; }
  bool empty() const noexcept { return total_entries_ == 0; }
  std::size_t num_partitions() const noexcept { return partitions_.size(); }

  // Current (first) partition state, for the Eq. 8 bootstrap.
  std::size_t current_partition_size() const;
  graph::Distance current_partition_bound() const;
  graph::Distance current_lower_bound() const noexcept { return lower_bound_; }

  // Smallest live distance across all partitions (INF if none): the
  // progress guarantee when the frontier runs dry.
  graph::Distance min_live_distance(
      std::span<const graph::Distance> current_distances) const;

  // Lowers the structure's floor (the implicit lower bound of the first
  // partition). Called when the rebalancer demotes frontier vertices
  // whose distances lie below previously consumed boundaries — the
  // "released" region shrinks back, and Eq. 7 must be able to subdivide
  // it again. Monotone in the safe direction: never raises the floor.
  void lower_floor(graph::Distance new_floor) noexcept {
    lower_bound_ = std::min(lower_bound_, new_floor);
  }

  // Drops all entries (used when every remaining entry is stale).
  void clear();

  // Copies the partition upper bounds (ascending, last == MAX) into
  // `out` — the invariant auditor's Eq. 7 monotonicity input. O(P) with
  // no allocation once `out` has capacity; does not expose entries.
  void boundary_snapshot(std::vector<graph::Distance>& out) const {
    out.clear();
    out.reserve(partitions_.size());
    for (const Partition& partition : partitions_)
      out.push_back(partition.upper_bound);
  }

  // Invariant check for tests: boundaries strictly increasing, last is
  // MAX, every entry within its partition's range. Throws otherwise.
  void check_invariants() const;

  // Complete serializable queue state (checkpoint/resume): the floor,
  // every partition's upper bound, and every entry — boundaries
  // included, so Eq. 7 maintenance continues exactly where it left off.
  struct State {
    graph::Distance lower_bound = 0;
    std::vector<graph::Distance> bounds;     // one per partition, ascending
    std::vector<std::vector<FarEntry>> entries;  // aligned with bounds

    friend bool operator==(const State&, const State&) = default;
  };
  State state() const;
  // Validated restore: rebuilds the partitions and re-derives the entry
  // count, then runs check_invariants(). Throws std::invalid_argument
  // on any malformed snapshot (bound order, entries above their bound,
  // shape mismatch).
  void restore(State&& state);

 private:
  struct Partition {
    graph::Distance upper_bound;
    std::vector<FarEntry> entries;
  };

  // Removes consumed (empty, non-final) partitions from the front.
  void drop_empty_front();
  std::size_t partition_index_for(graph::Distance d) const;

  std::vector<Partition> partitions_;
  graph::Distance lower_bound_ = 0;  // B_{i-1} of the current partition
  std::size_t total_entries_ = 0;
};

}  // namespace sssp::frontier
