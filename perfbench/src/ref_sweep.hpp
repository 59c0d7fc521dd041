// The reference sweep: the unit every host timing is reported in.
//
// The host this benchmark was built on is a VM whose memory system
// drifts by 10% and more between (and within) runs, while a
// register-only loop holds steady, and whose vCPUs are shared with
// other guests; it exposes no PMU and no RAPL to count instead. SSSP
// solves are gather-bound and mix serial work with work on a 4-thread
// pool, so the benchmark times a fixed pass of the same shape — one
// min-plus gather over every edge, done once on one thread and once
// split over 4 threads of its own — on a private copy of the
// workload's CSR arrays that the program never touches, right before
// and after each sample, and divides the sample by it. Drift that slows
// both cancels; a change to the program moves only the numerator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/csr.hpp"

namespace perfbench {

class Spans;

class RefSweep {
 public:
  // Copies the graph's arrays; the copy is never shared with the
  // program. `threads` is the width of the parallel half of a pass.
  RefSweep(const sssp::graph::CsrGraph& graph, std::size_t threads);

  // Runs one timed pass, records it as the next reference point and
  // returns that point's index. `spans` may be null.
  std::size_t point(Spans* spans = nullptr);

  // Normalizer for a sample taken right after point `before` (and so
  // right before point `before + 1`): the median of the six points
  // around it, which shrugs off a single disturbed pass.
  double around(std::size_t before) const;

  const std::vector<double>& points_ms() const { return points_ms_; }
  std::uint64_t sink() const { return sink_; }

 private:
  // The min-plus gather over vertices [begin, end); returns the sum of
  // the labels it wrote.
  std::uint64_t gather(std::size_t begin, std::size_t end);

  std::size_t threads_;
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint32_t> targets_;
  std::vector<std::uint32_t> weights_;
  std::vector<std::uint64_t> x_;  // fixed input labels
  std::vector<std::uint64_t> y_;  // output of the pass
  std::vector<double> points_ms_;
  std::uint64_t sink_ = 0;  // folds every pass's output so none is elided
};

}  // namespace perfbench
