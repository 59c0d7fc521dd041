#include "ref_sweep.hpp"

#include <algorithm>
#include <thread>

#include "bench.hpp"
#include "spans.hpp"

namespace perfbench {

RefSweep::RefSweep(const sssp::graph::CsrGraph& graph, std::size_t threads)
    : threads_(threads),
      offsets_(graph.offsets().begin(), graph.offsets().end()),
      targets_(graph.targets().begin(), graph.targets().end()),
      weights_(graph.weights().begin(), graph.weights().end()),
      x_(graph.num_vertices()),
      y_(graph.num_vertices()) {
  // Labels spread like tentative distances: distinct, unordered.
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t& label : x_) {
    h ^= h >> 31;
    h *= 0xbf58476d1ce4e5b9ull;
    label = h % 1'000'000;
  }
}

std::uint64_t RefSweep::gather(std::size_t begin, std::size_t end) {
  std::uint64_t folded = 0;
  for (std::size_t v = begin; v < end; ++v) {
    std::uint64_t best = x_[v];
    for (std::uint64_t e = offsets_[v]; e < offsets_[v + 1]; ++e)
      best = std::min(best, x_[targets_[e]] + weights_[e]);
    y_[v] = best;
    folded += best;
  }
  return folded;
}

std::size_t RefSweep::point(Spans* spans) {
  const ScopedSpan span(spans, "ref.sweep", "ref");
  const Clock::time_point start = Clock::now();
  const std::size_t n = y_.size();
  sink_ += gather(0, n);
  std::vector<std::uint64_t> folded(threads_, 0);
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < threads_; ++t)
      workers.emplace_back([&, t] {
        folded[t] = gather(n * t / threads_, n * (t + 1) / threads_);
      });
  }  // joined here
  for (const std::uint64_t f : folded) sink_ += f;
  points_ms_.push_back(ms_between(start, Clock::now()));
  return points_ms_.size() - 1;
}

double RefSweep::around(std::size_t before) const {
  const std::size_t n = points_ms_.size();
  const std::size_t lo = before >= 2 ? before - 2 : 0;
  const std::size_t hi = std::min(n, before + 4);
  return quantile({points_ms_.begin() + static_cast<std::ptrdiff_t>(lo),
                   points_ms_.begin() + static_cast<std::ptrdiff_t>(hi)},
                  0.5);
}

}  // namespace perfbench
