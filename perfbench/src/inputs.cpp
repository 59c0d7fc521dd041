#include "inputs.hpp"

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>

#include "graph/rmat.hpp"
#include "graph/road.hpp"

namespace perfbench {

using sssp::graph::CsrGraph;
using sssp::graph::VertexId;

std::string GraphSpec::label() const {
  return workload + "-" + size + "-seed" + std::to_string(seed);
}

CsrGraph generate_graph(const GraphSpec& spec) {
  const bool full = spec.size == "full";
  if (!full && spec.size != "small")
    throw std::invalid_argument("unknown size '" + spec.size + "'");
  if (spec.workload == "road") {
    // Cal-like: 512x512 grid, about 262 k vertices and 967 k edges.
    sssp::graph::RoadOptions options;
    options.rows = options.cols = full ? 512 : 64;
    options.seed = spec.seed;
    return sssp::graph::generate_road(options);
  }
  if (spec.workload == "rmat") {
    // Wiki-like: 12 edges per vertex is Wiki's mean degree.
    sssp::graph::RmatOptions options;
    options.scale = full ? 17 : 12;
    options.num_edges = std::uint64_t{12} << options.scale;
    options.seed = spec.seed;
    return sssp::graph::generate_rmat(options);
  }
  throw std::invalid_argument("unknown workload '" + spec.workload + "'");
}

namespace {

template <typename T>
void fnv_bytes(std::uint64_t& h, std::span<const T> data) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  for (std::size_t i = 0; i < data.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
}

}  // namespace

std::uint64_t fingerprint(const CsrGraph& graph) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  fnv_bytes(h, graph.offsets());
  fnv_bytes(h, graph.targets());
  fnv_bytes(h, graph.weights());
  return h;
}

bool check_pinned(const std::string& pins_path, const GraphSpec& spec,
                  std::uint64_t value) {
  std::ifstream in(pins_path);
  if (!in) throw std::runtime_error("cannot read pins file " + pins_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, size, pinned;
    std::uint64_t seed = 0;
    if (!(fields >> workload >> size >> seed >> pinned))
      throw std::runtime_error("malformed pins line: " + line);
    if (workload != spec.workload || size != spec.size || seed != spec.seed)
      continue;
    const std::uint64_t expected = std::stoull(pinned, nullptr, 16);
    if (expected != value) {
      std::ostringstream msg;
      msg << "input fingerprint mismatch for " << spec.label() << ": got "
          << std::hex << value << ", pinned " << expected
          << " (a graph generator changed; see perfbench/README.md)";
      throw std::runtime_error(msg.str());
    }
    return true;
  }
  return false;
}

namespace {

// True when a breadth-first search from `source` visits at least
// `enough` vertices; stops as soon as it has.
bool reaches(const CsrGraph& graph, VertexId source, std::size_t enough) {
  std::vector<bool> seen(graph.num_vertices(), false);
  std::vector<VertexId> queue{source};
  seen[source] = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    if (queue.size() >= enough) return true;
    for (const VertexId w : graph.neighbors(queue[head]))
      if (!seen[w]) {
        seen[w] = true;
        queue.push_back(w);
      }
  }
  return queue.size() >= enough;
}

}  // namespace

std::vector<VertexId> pick_sources(const CsrGraph& graph, std::uint64_t seed,
                                   std::size_t count) {
  std::mt19937_64 rng(seed ^ 0x5eed5eed5eed5eedull);
  std::vector<VertexId> sources;
  const std::size_t n = graph.num_vertices();
  for (std::size_t tries = 0; sources.size() < count && tries < 100 * n;
       ++tries) {
    const auto v = static_cast<VertexId>(rng() % n);
    if (graph.out_degree(v) > 0 &&
        std::find(sources.begin(), sources.end(), v) == sources.end() &&
        reaches(graph, v, n / 100))
      sources.push_back(v);
  }
  if (sources.size() < count)
    throw std::runtime_error("graph has too few vertices with out-edges");
  return sources;
}

std::vector<VertexId> cold_sources(const CsrGraph& graph, std::uint64_t seed,
                                   const std::vector<VertexId>& exclude) {
  std::vector<VertexId> cold;
  for (std::size_t v = 0; v < graph.num_vertices(); ++v) {
    const auto id = static_cast<VertexId>(v);
    if (graph.out_degree(id) > 0 &&
        std::find(exclude.begin(), exclude.end(), id) == exclude.end())
      cold.push_back(id);
  }
  std::mt19937_64 rng(seed ^ 0xc01dc01dc01dc01dull);
  for (std::size_t i = cold.size(); i > 1; --i)
    std::swap(cold[i - 1], cold[rng() % i]);
  return cold;
}

}  // namespace perfbench
