#include "verify/certifier.hpp"

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "prof/profiler.hpp"
#include "sssp/dijkstra.hpp"
#include "util/thread_pool.hpp"
#include "util/weight_math.hpp"
#include "verify/flight_recorder.hpp"

namespace sssp::verify {

namespace {

// Graphs with at least this many vertices sweep on the thread pool;
// smaller ones sweep inline on the caller. The certificate is identical
// either way (docs/PERFORMANCE.md, "Where parallelism lives").
constexpr std::size_t kPooledMinVertices = std::size_t{1} << 14;

// Per-chunk findings, merged in chunk order so the certificate is
// byte-identical at every thread count.
struct ChunkFindings {
  std::uint64_t violations = 0;
  std::vector<Violation> samples;
};

void add_violation(ChunkFindings& findings, std::size_t sample_cap,
                   ViolationKind kind, graph::VertexId vertex,
                   std::string detail) {
  ++findings.violations;
  if (findings.samples.size() < sample_cap)
    findings.samples.push_back({kind, vertex, std::move(detail)});
}

void merge_findings(Certificate& cert, std::size_t sample_cap,
                    std::vector<ChunkFindings>& chunks) {
  for (ChunkFindings& chunk : chunks) {
    cert.violations += chunk.violations;
    for (Violation& violation : chunk.samples) {
      if (cert.samples.size() >= sample_cap) break;
      cert.samples.push_back(std::move(violation));
    }
  }
}

std::string label(const std::string& what, graph::Distance value) {
  std::ostringstream out;
  out << what << "=";
  if (value == graph::kInfiniteDistance)
    out << "inf";
  else
    out << value;
  return out.str();
}

}  // namespace

const char* to_string(ViolationKind kind) noexcept {
  switch (kind) {
    case ViolationKind::kShape: return "shape";
    case ViolationKind::kSourceLabel: return "source-label";
    case ViolationKind::kEdgeRelaxation: return "edge-relaxation";
    case ViolationKind::kParentRange: return "parent-range";
    case ViolationKind::kParentEdge: return "parent-edge";
    case ViolationKind::kParentCycle: return "parent-cycle";
    case ViolationKind::kUnreachableLabel: return "unreachable-label";
    case ViolationKind::kCrossCheck: return "cross-check";
  }
  return "unknown";
}

std::string Certificate::summary() const {
  std::ostringstream out;
  if (certified) {
    out << "certified, " << vertices_checked << " vertices / "
        << edges_checked << " edges";
    if (cross_checked) out << ", cross-checked vs dijkstra";
  } else {
    out << "FAILED: " << violations << " violation"
        << (violations == 1 ? "" : "s");
    if (!samples.empty()) {
      out << " (first: " << to_string(samples.front().kind) << " at v="
          << samples.front().vertex;
      if (!samples.front().detail.empty())
        out << ": " << samples.front().detail;
      out << ")";
    }
  }
  return out.str();
}

Certificate certify(const graph::CsrGraph& graph,
                    const algo::SsspResult& result,
                    const CertifyOptions& options) {
  SSSP_PROF_PHASE("verify");
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n = graph.num_vertices();
  if (result.source >= n && n > 0)
    throw std::invalid_argument("certify: source out of range");
  if (n == 0 && result.source != 0)
    throw std::invalid_argument("certify: source out of range");

  Certificate cert;

  // Shape first: the sweeps below index both arrays by vertex id, so a
  // size mismatch is unrecoverable and reported alone.
  const bool has_parents = !result.parents.empty();
  if (result.distances.size() != n ||
      (has_parents && result.parents.size() != n)) {
    cert.violations = 1;
    std::ostringstream detail;
    detail << "expected " << n << " vertices, got " << result.distances.size()
           << " distances / " << result.parents.size() << " parents";
    cert.samples.push_back(
        {ViolationKind::kShape, graph::kInvalidVertex, detail.str()});
    cert.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    record_event(FlightEventKind::kCertify, 0, "fail:shape", cert.violations);
    return cert;
  }

  const graph::VertexId source = result.source;
  const std::vector<graph::Distance>& dist = result.distances;
  const std::vector<graph::VertexId>& parents = result.parents;

  if (n > 0) {
    if (dist[source] != 0) {
      cert.violations++;
      cert.samples.push_back({ViolationKind::kSourceLabel, source,
                              label("dist[source]", dist[source])});
    }
    if (has_parents && parents[source] != source) {
      cert.violations++;
      cert.samples.push_back({ViolationKind::kSourceLabel, source,
                              "source is not its own parent"});
    }
  }

  // tight[v] records whether the vertex-sweep saw a tight edge into v —
  // from its claimed parent when parents were recorded, from anywhere
  // otherwise (existence is what the lower-bound argument needs). Set
  // with relaxed atomics: any write is "true", order is irrelevant.
  std::vector<std::uint8_t> tight(n, 0);

  util::ThreadPool& pool = util::ThreadPool::global();
  const std::size_t num_chunks =
      n >= kPooledMinVertices ? std::min(pool.size() * 4, n) : 1;
  const std::size_t chunk_size = (n + num_chunks - 1) / num_chunks;
  std::vector<ChunkFindings> chunks(num_chunks);

  auto sweep_chunk = [&](std::size_t chunk, std::size_t) {
    ChunkFindings& findings = chunks[chunk];
    const std::size_t begin = chunk * chunk_size;
    const std::size_t end = std::min(n, begin + chunk_size);
    for (std::size_t ui = begin; ui < end; ++ui) {
      const auto u = static_cast<graph::VertexId>(ui);
      const graph::Distance du = dist[u];

      // Label/parent consistency for u itself.
      if (du == graph::kInfiniteDistance) {
        if (has_parents && parents[u] != graph::kInvalidVertex)
          add_violation(findings, options.max_violations,
                        ViolationKind::kUnreachableLabel, u,
                        "unreached vertex has a parent");
      } else if (u != source && has_parents) {
        const graph::VertexId p = parents[u];
        if (p == graph::kInvalidVertex)
          add_violation(findings, options.max_violations,
                        ViolationKind::kParentRange, u,
                        "reached vertex has no parent");
        else if (p >= n)
          add_violation(findings, options.max_violations,
                        ViolationKind::kParentRange, u,
                        "parent id out of range");
        else if (dist[p] == graph::kInfiniteDistance)
          add_violation(findings, options.max_violations,
                        ViolationKind::kParentRange, u,
                        "parent is unreached");
      }

      // Edge consistency out of u. An unreached u imposes nothing
      // (inf + w saturates to inf).
      if (du == graph::kInfiniteDistance) continue;
      const auto neighbors = graph.neighbors(u);
      const auto weights = graph.weights_of(u);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        const graph::VertexId v = neighbors[i];
        const graph::Distance through =
            util::saturating_add(du, weights[i]);
        if (dist[v] > through)
          add_violation(findings, options.max_violations,
                        ViolationKind::kEdgeRelaxation, v,
                        label("dist", dist[v]) + " > " +
                            label("via " + std::to_string(u) + " bound",
                                  through));
        const bool tightens =
            dist[v] == through &&
            (!has_parents || (v < n && parents[v] == u));
        if (tightens && v < n && v != source) {
          std::atomic_ref<std::uint8_t> flag(tight[v]);
          flag.store(1, std::memory_order_relaxed);
        }
      }
    }
  };

  pool.for_each_chunk(num_chunks, sweep_chunk);

  merge_findings(cert, options.max_violations, chunks);

  // Lower-bound half: every reached non-source vertex needs the tight
  // edge the sweep looked for. Range violations were reported above;
  // re-reporting them here as missing-edge would double count.
  for (std::size_t vi = 0; vi < n; ++vi) {
    const auto v = static_cast<graph::VertexId>(vi);
    if (v == source || dist[v] == graph::kInfiniteDistance) continue;
    if (has_parents &&
        (parents[v] == graph::kInvalidVertex || parents[v] >= n))
      continue;
    if (tight[v]) continue;
    ++cert.violations;
    if (cert.samples.size() < options.max_violations)
      cert.samples.push_back(
          {ViolationKind::kParentEdge, v,
           has_parents
               ? "dist[parent] + w(parent, v) != " + label("dist", dist[v])
               : "no incoming edge closes " + label("dist", dist[v])});
  }

  // Acyclicity of the parent forest: tight edges alone admit zero-weight
  // cycles, which would "certify" labels no real path achieves. Serial
  // three-color walk, every vertex visited once.
  if (has_parents && n > 0) {
    std::vector<std::uint8_t> color(n, 0);  // 0 new, 1 on path, 2 done
    color[source] = 2;
    std::vector<graph::VertexId> path;
    for (std::size_t vi = 0; vi < n; ++vi) {
      const auto v = static_cast<graph::VertexId>(vi);
      if (dist[v] == graph::kInfiniteDistance || color[v] != 0) continue;
      path.clear();
      graph::VertexId u = v;
      bool broken = false;
      while (color[u] == 0) {
        color[u] = 1;
        path.push_back(u);
        const graph::VertexId p = parents[u];
        if (p == graph::kInvalidVertex || p >= n ||
            dist[p] == graph::kInfiniteDistance) {
          broken = true;  // already reported as kParentRange
          break;
        }
        u = p;
      }
      if (!broken && color[u] == 1) {
        ++cert.violations;
        if (cert.samples.size() < options.max_violations)
          cert.samples.push_back({ViolationKind::kParentCycle, u,
                                  "parent chain loops back to " +
                                      std::to_string(u)});
      }
      for (const graph::VertexId w : path) color[w] = 2;
    }
  }

  // Strict mode: independent re-derivation. Catches a certifier bug as
  // well as a result bug, at re-solve cost.
  if (options.strict && n <= options.strict_max_vertices && n > 0) {
    const std::vector<graph::Distance> expected =
        algo::dijkstra_distances(graph, source);
    for (std::size_t vi = 0; vi < n; ++vi) {
      if (dist[vi] == expected[vi]) continue;
      ++cert.violations;
      if (cert.samples.size() < options.max_violations)
        cert.samples.push_back(
            {ViolationKind::kCrossCheck, static_cast<graph::VertexId>(vi),
             label("got", dist[vi]) + ", dijkstra " +
                 label("expected", expected[vi])});
    }
    cert.cross_checked = true;
  }

  cert.vertices_checked = n;
  cert.edges_checked = graph.num_edges();
  cert.certified = cert.violations == 0;
  cert.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  record_event(FlightEventKind::kCertify, 0,
               cert.certified ? "pass" : "fail", cert.violations);
  return cert;
}

}  // namespace sssp::verify
