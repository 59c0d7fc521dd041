// Shared declarations of the end-to-end benchmark (perfbench/README.md).
//
// Every host timing the benchmark reports is expressed in `ref` units:
// multiples of one reference sweep (ref_sweep.hpp) timed in the same
// process right before and after the samples it normalizes. Raw
// milliseconds are kept beside each normalized sample as diagnostics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "serve/server.hpp"

namespace perfbench {

class RefSweep;
class Spans;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0
// for an empty sample.
double quantile(std::vector<double> values, double q);

// FNV-1a 64 over the raw distance array — the same checksum the server
// reports as Response::dist_checksum.
std::uint64_t dist_checksum(const std::vector<sssp::graph::Distance>& dist);

// One timed series: raw milliseconds, each tagged with the reference
// point taken immediately before it, normalized once the phase is over.
struct Series {
  std::vector<double> raw_ms;
  std::vector<std::size_t> ref_before;
  std::vector<double> ref;  // filled by normalize()

  void add(double ms, std::size_t ref_index) {
    raw_ms.push_back(ms);
    ref_before.push_back(ref_index);
  }
  void normalize(const RefSweep& sweep);
  std::size_t size() const { return raw_ms.size(); }
};

// Operation accounting: every solve, batch lane and served query is
// one attempted operation; a checksum mismatch, failed certification or
// non-ok response is one failed operation.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& what);  // counts it and logs to stderr
};

// Everything a phase needs: the workload's graph and sources, the
// reference sweep, the span recorder and the failure tally.
struct Context {
  std::string workload;  // "road" | "rmat"
  const sssp::graph::CsrGraph* graph = nullptr;
  std::vector<sssp::graph::VertexId> sources;  // seeded, cycled
  std::uint64_t seed = 0;
  RefSweep* ref = nullptr;
  Spans* spans = nullptr;
  Tally tally;
  // Distance checksum of each source, from the first solve that
  // produced it; every later answer for that source must match.
  std::map<sssp::graph::VertexId, std::uint64_t> checksums;

  // Records `sum` as the answer for `source`; a disagreement with an
  // earlier answer is a failed operation.
  void check_checksum(sssp::graph::VertexId source, std::uint64_t sum,
                      const std::string& who);
};

// ---- solve phase (solve_phase.cpp) ----------------------------------
struct SolveStats {
  Series near_far, self_tuning, delta_stepping, batch8;
  Series certify;  // verify::certify per result
  double device_time_ms = 0.0;    // mean per source, modeled TK1
  double device_energy_mj = 0.0;  // mean per source, modeled TK1
  std::vector<double> replay_ms;  // host time of each sim replay
  // Work counts, mean per source over the first cycle.
  double near_far_iterations = 0.0, near_far_relax_per_reached = 0.0;
  double self_tuning_iterations = 0.0, self_tuning_relax_per_reached = 0.0;
  double delta_stepping_relax_per_reached = 0.0;
};

// Runs near-far, self-tuning and delta-stepping per source (and a batch
// of 8 every eighth sample) until `deadline`, certifying every result
// outside the timed region. With `profile_all`, sources the timed loop
// did not reach are solved afterwards, untimed, so the device model and
// work counts always cover every source.
SolveStats run_solve_phase(Context& ctx, Clock::time_point deadline,
                           bool profile_all);

// ---- serve phases (serve_phase.cpp) ---------------------------------
struct ServeStats {
  Series hit, miss;            // phase A, client latency
  Series overhead;             // phase A, latency - queue_ms - run_ms
  Series saturated;            // phase B, wall time per query per burst
  std::vector<double> queue_ms_b;  // phase B, per response
  double coalesced_share = 0.0;    // phase B
  double hit_ratio = 0.0;          // phases A and B
  std::uint64_t queries = 0;
  // The first requests and responses, for the parse/format probes.
  std::vector<std::string> request_lines;
  std::vector<sssp::serve::Response> responses;
};

// Phase A (1 outstanding query) until `deadline_a`, then phase B (8
// outstanding, in bursts) until `deadline_b`. Hot-source answers are
// checked against the solve phase's checksums, cold ones against
// independent batched solves run after the phase.
ServeStats run_serve_phases(Context& ctx, sssp::serve::Server& server,
                            Clock::time_point deadline_a,
                            Clock::time_point deadline_b);

// ---- trace-only layer probes (layer_probes.cpp) ---------------------
struct ProbeStats {
  double load_mmap_ms = 0.0;
  double advance_ref = 0.0, bisect_ref = 0.0;  // per sweep, p50
  double advance_ms = 0.0, bisect_ms = 0.0;
  double engine_edges = 0.0, engine_bytes_mb = 0.0;  // per sweep
  double controller_share = 0.0;
  double parse_us = 0.0, format_us = 0.0;
};

ProbeStats run_layer_probes(Context& ctx, const std::string& graph_path,
                            const ServeStats& serve);

}  // namespace perfbench
