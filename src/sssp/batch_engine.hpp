// Batched multi-source SSSP: K queries in one invocation
// (docs/PERFORMANCE.md, "Batched multi-source").
//
// Real traffic against a resident graph is many sources. A batch runs
// K independent single-source near-far runs that share the CSR and the
// global thread pool: each lane is a serial near-far run, and the
// pool's dynamic chunk claiming IS the work-stealing between lanes.
// This is where the engine's parallelism lives — across queries, not
// inside one advance.
//
// Determinism contract: every lane IS the corresponding single-source
// near-far run, returned unchanged — distances, parents, improving
// count and iteration trace are bit-identical to near_far() at any
// thread count, and every lane passes the certifier. A lone lane runs
// inline on the calling thread, so the server's one execution path
// (serve/server.hpp) pays nothing for solving a lone query as a batch
// of one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "sssp/result.hpp"
#include "util/run_control.hpp"

namespace sssp::algo {

// The only strategy: independent serial lanes. It stays a one-value
// enum because perfbench (perfbench/src/serve_phase.cpp) sets
// BatchOptions::strategy by name; nothing in the library reads it.
enum class BatchStrategy : std::uint8_t { kIndependent };

// Lane cap per run_batch call: the server's coalescing limit. Callers
// with more sources run several batches.
inline constexpr std::size_t kMaxBatchLanes = 64;

struct BatchOptions {
  BatchStrategy strategy = BatchStrategy::kIndependent;
  // Phase width, passed to every lane unchanged. 0 selects near_far's
  // default_delta, so batched lanes walk the same phase ladder as a
  // single-source run with default delta.
  graph::Distance delta = 0;
  // Cooperative cancellation shared by every lane; polled inside each
  // lane's advances. Not owned; may be null.
  util::RunControl* control = nullptr;
};

struct BatchResult {
  // Index-aligned with the `sources` span. Each lane is the near_far()
  // result for its source.
  std::vector<SsspResult> lanes;
};

// Runs K = sources.size() queries under `options`. Throws
// std::invalid_argument for an empty source list, more than
// kMaxBatchLanes sources, or an out-of-range source. Duplicate sources
// are legal (lanes are computed independently of each other's
// presence).
BatchResult run_batch(const graph::CsrGraph& graph,
                      std::span<const graph::VertexId> sources,
                      const BatchOptions& options = {});

}  // namespace sssp::algo
