// Seeded inputs: the workload graphs, their fingerprints, and the
// source sequences. The program under test only ever sees the generated
// graph and the chosen sources; the seed stays in the benchmark.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace perfbench {

struct GraphSpec {
  std::string workload;  // "road" | "rmat"
  std::string size;      // "full" | "small" (the output self-test)
  std::uint64_t seed = 0;

  std::string label() const;  // e.g. "road-full-seed1"
};

// Throws std::invalid_argument for an unknown workload or size.
sssp::graph::CsrGraph generate_graph(const GraphSpec& spec);

// FNV-1a 64 over the raw bytes of offsets, then targets, then weights.
std::uint64_t fingerprint(const sssp::graph::CsrGraph& graph);

// Compares `value` with the fingerprint pinned for `spec` in the pins
// file (perfbench/fingerprints.txt). Returns false when the spec is not
// pinned; throws std::runtime_error on a mismatch, so a changed
// generator fails loudly instead of silently moving every metric.
bool check_pinned(const std::string& pins_path, const GraphSpec& spec,
                  std::uint64_t value);

// `count` distinct seeded vertices with nonzero out-degree that reach at
// least 1% of the graph: a source stranded in a tiny component would
// time call overhead, not a solve.
std::vector<sssp::graph::VertexId> pick_sources(
    const sssp::graph::CsrGraph& graph, std::uint64_t seed, std::size_t count);

// Every vertex with nonzero out-degree that is not in `exclude`, in a
// seeded order: the serve phases' cold sources, each used once.
std::vector<sssp::graph::VertexId> cold_sources(
    const sssp::graph::CsrGraph& graph, std::uint64_t seed,
    const std::vector<sssp::graph::VertexId>& exclude);

}  // namespace perfbench
