#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "graph/binary_io.hpp"
#include "ref_sweep.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t dist_checksum(const std::vector<sssp::graph::Distance>& dist) {
  return sssp::graph::fnv1a64(dist.data(),
                              dist.size() * sizeof(sssp::graph::Distance));
}

void Series::normalize(const RefSweep& sweep) {
  ref.clear();
  for (std::size_t i = 0; i < raw_ms.size(); ++i)
    ref.push_back(raw_ms[i] / sweep.around(ref_before[i]));
}

void Tally::fail(const std::string& what) {
  ++failed;
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void Context::check_checksum(sssp::graph::VertexId source, std::uint64_t sum,
                             const std::string& who) {
  const auto [it, inserted] = checksums.emplace(source, sum);
  if (!inserted && it->second != sum)
    tally.fail(who + " source " + std::to_string(source) +
               ": distance checksum differs from an earlier answer");
}

}  // namespace perfbench
