// Pins the traces of the fixed-delta solvers: distances, parents, the
// improving count and every IterationStats field, folded into one
// FNV-1a hash per run. The traces feed the device model (stage 4 is
// charged from rebalance_items), so a change to the stepping loop must
// keep them bit-identical; a deliberate trace change re-records the
// hashes and says why.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <sstream>
#include <string>

#include "graph/datasets.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/near_far.hpp"

namespace sssp::algo {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t trace_hash(const SsspResult& r) {
  Fnv1a h;
  h.add(std::uint64_t{r.distances.size()});
  for (const graph::Distance d : r.distances) h.add(std::uint64_t{d});
  h.add(std::uint64_t{r.parents.size()});
  for (const graph::VertexId p : r.parents) h.add(std::uint64_t{p});
  h.add(r.improving_relaxations);
  h.add(std::uint64_t{r.iterations.size()});
  for (const frontier::IterationStats& it : r.iterations) {
    h.add(it.x1);
    h.add(it.x2);
    h.add(it.x3);
    h.add(it.x4);
    h.add(it.improving_relaxations);
    h.add(it.far_queue_size);
    h.add(it.rebalance_items);
    h.add(it.controller_seconds);
    h.add(it.delta);
    h.add(it.degree_estimate);
    h.add(it.alpha_estimate);
    h.add(std::uint64_t{it.controller_degraded});
  }
  return h.value();
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

TEST(FixedDeltaTrace, SeededDatasetTracesArePinned) {
  struct Pinned {
    graph::Dataset dataset;
    double scale;
    const char* name;
    std::uint64_t near_far;            // default delta
    std::uint64_t near_far_delta_one;  // delta 1
    std::uint64_t delta_stepping;      // default delta
    std::uint64_t bellman_ford;
  };
  const Pinned pinned[] = {
      {graph::Dataset::kCal, 1.0 / 128.0, "cal", 0xc595474160077927,
       0x4fdbc8571fa2526a, 0x6c8215ee3f4c71cb, 0x81a10e1d36734323},
      {graph::Dataset::kWiki, 1.0 / 256.0, "wiki", 0x933440c4cd4e612e,
       0x2930a3805e199e47, 0xc07b2f45e47dca62, 0xbaf4e90a3859ae5c},
  };
  for (const Pinned& p : pinned) {
    const auto g = graph::make_dataset(p.dataset, {.scale = p.scale});
    const graph::VertexId s = graph::default_source(p.dataset, g);
    EXPECT_EQ(hex(trace_hash(near_far(g, s))), hex(p.near_far))
        << p.name << " near-far";
    EXPECT_EQ(hex(trace_hash(near_far(g, s, {.delta = 1}))),
              hex(p.near_far_delta_one))
        << p.name << " near-far delta 1";
    EXPECT_EQ(hex(trace_hash(delta_stepping(g, s))), hex(p.delta_stepping))
        << p.name << " delta-stepping";
    EXPECT_EQ(hex(trace_hash(bellman_ford(g, s))), hex(p.bellman_ford))
        << p.name << " bellman-ford";
  }
}

}  // namespace
}  // namespace sssp::algo
