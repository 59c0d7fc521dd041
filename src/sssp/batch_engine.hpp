// Batched multi-source SSSP: K queries in one invocation
// (docs/PERFORMANCE.md, "Batched multi-source").
//
// Real traffic against a resident graph is many sources. A batch runs
// K independent single-source near-far runs that share the CSR and the
// global thread pool: each lane is a serial near_far(graph, source)
// run at the default delta, and the pool's dynamic chunk claiming IS
// the work-stealing between lanes. Like the server's workers, it runs
// in parallel across queries, never inside one advance.
//
// Determinism contract: every lane IS the corresponding single-source
// near-far run, returned unchanged — distances, parents, improving
// count and iteration trace are bit-identical to near_far() at any
// thread count, and every lane passes the certifier. A lone lane runs
// inline on the calling thread. The server does not call run_batch: it
// solves each query with near_far() on its own worker
// (serve/server.hpp); perfbench's batch8 row and the soak's batched
// leg do.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "sssp/result.hpp"

namespace sssp::algo {

// The only strategy: independent serial lanes. It stays a one-value
// enum because perfbench (perfbench/src/serve_phase.cpp) sets
// BatchOptions::strategy by name; nothing in the library reads it.
enum class BatchStrategy : std::uint8_t { kIndependent };

// Lane cap per run_batch call. Callers with more sources run several
// batches.
inline constexpr std::size_t kMaxBatchLanes = 64;

struct BatchOptions {
  BatchStrategy strategy = BatchStrategy::kIndependent;
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
