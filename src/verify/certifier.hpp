// Result certifier — O(V+E) validation of a finished SsspResult as a
// self-contained certificate (docs/ROBUSTNESS.md, "Verification &
// post-mortem").
//
// The checks together are *complete*: a result that passes carries a
// proof that its labels are the exact shortest-path distances, without
// re-running any solver.
//   - edge consistency: dist[v] <= dist[u] + w for every edge (u,v) —
//     by induction along any shortest path, dist[v] <= true_dist(v),
//     and no edge can leave the reached set into an INF label;
//   - parent tightness: every reached non-source v has a parent edge
//     with dist[parent] + w == dist[v], and the parent pointers are
//     acyclic — so a real path of length dist[v] exists, giving
//     dist[v] >= true_dist(v);
//   - exact labels at the endpoints: dist[source] == 0 with the source
//     its own parent, unreached vertices labelled INF with no parent.
// Equality follows for every vertex. The optional strict mode
// re-derives distances with sssp/dijkstra and cross-checks — defense in
// depth against a bug in the certifier itself, affordable on small
// graphs.
//
// The edge/vertex sweep runs on the thread pool on graphs of 2^14
// vertices or more (per-chunk counters and violation samples merged in
// chunk order, so the report is identical at any pool size). Distance
// arithmetic uses the same saturating add as the relaxation kernels.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "sssp/result.hpp"

namespace sssp::verify {

enum class ViolationKind : std::uint8_t {
  kShape = 0,             // result arrays do not match the graph
  kSourceLabel = 1,       // dist/parent wrong at the source
  kEdgeRelaxation = 2,    // dist[v] > dist[u] + w(u,v)
  kParentRange = 3,       // parent id out of range or missing
  kParentEdge = 4,        // no tight edge parent(v) -> v
  kParentCycle = 5,       // parent pointers do not reach the source
  kUnreachableLabel = 6,  // INF label with a parent, or vice versa
  kCrossCheck = 7,        // strict mode: label differs from Dijkstra
};

const char* to_string(ViolationKind kind) noexcept;

struct Violation {
  ViolationKind kind = ViolationKind::kShape;
  graph::VertexId vertex = graph::kInvalidVertex;  // primary vertex
  std::string detail;
};

struct CertifyOptions {
  // Violation samples retained in the certificate (the total count is
  // always exact).
  std::size_t max_violations = 16;
  // Strict mode: additionally cross-check every label against
  // sssp/dijkstra — skipped (cross_checked == false) above
  // strict_max_vertices, where the O((V+E) log V) re-solve stops being
  // a cheap double-check.
  bool strict = false;
  std::size_t strict_max_vertices = std::size_t{1} << 22;
};

struct Certificate {
  bool certified = false;
  std::uint64_t vertices_checked = 0;
  std::uint64_t edges_checked = 0;
  std::uint64_t violations = 0;       // exact total
  std::vector<Violation> samples;     // capped at max_violations
  bool cross_checked = false;         // strict Dijkstra pass ran
  double seconds = 0.0;

  // One-line human summary ("certified, 1024 vertices / 4096 edges" or
  // "FAILED: 3 violations (first: edge-relaxation at v=17: ...)").
  std::string summary() const;
};

// Validates `result` against `graph`. Never throws on a bad result —
// every defect lands in the certificate; throws std::invalid_argument
// only when the inputs are unusable (source out of range).
Certificate certify(const graph::CsrGraph& graph,
                    const algo::SsspResult& result,
                    const CertifyOptions& options = {});

}  // namespace sssp::verify
