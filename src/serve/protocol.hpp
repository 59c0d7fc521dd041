// Wire protocol for the SSSP query service (docs/SERVING.md).
//
// Requests and responses are single JSON objects. Two transports carry
// them: newline-delimited JSON over stdin/stdout (pipe mode) and
// 4-byte little-endian length-prefixed frames over TCP (socket mode).
// The parser is a hard input firewall: a request is either validated
// into a typed Request (ids, vertex ranges, finite numbers, bounded
// target lists) or rejected into a structured `invalid` response — a
// poisoned request must never reach the execution pipeline or take the
// server down.
//
// Response statuses (stable strings, see docs/SERVING.md):
//   ok            query executed; payload carries the result summary
//   overloaded    shed by the admission queue; retry_after_ms hints when
//   expired       per-query deadline passed (in queue or mid-run)
//   invalid       request rejected by the parser/validator (no retry)
//   error         handler failed (crash failpoint, certification, ...)
//   shutting_down server is draining; retry against a replica or later
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/types.hpp"

namespace sssp::serve {

enum class Status : std::uint8_t {
  kOk = 0,
  kOverloaded = 1,
  kExpired = 2,
  kInvalid = 3,
  kError = 4,
  kShuttingDown = 5,
};

const char* to_string(Status status) noexcept;

// The algorithms the service solves with: near-far, dijkstra,
// delta-stepping and self-tuning. The request parser and the server's
// default-algorithm option both accept exactly these names.
bool is_served_algorithm(std::string_view name) noexcept;

// Validated query request. `cmd` distinguishes real queries from the
// control verbs, all served inline without touching the admission
// queue: "info" (graph shape + server limits), "health" (liveness:
// answers as long as the process can parse and respond), and "ready"
// (readiness: ok only when the process is accepting new queries — the
// supervisor reports false until at least one worker is live, a
// draining server reports false).
struct Request {
  std::string id;
  std::string cmd = "query";  // "query" | "info" | "health" | "ready"
  graph::VertexId source = 0;
  // near-far | dijkstra | delta-stepping | self-tuning; empty selects
  // the server default.
  std::string algorithm;
  // Per-query wall-clock budget; 0 selects the server default, which
  // may be "none". Measured from *admission*, so time spent queued
  // counts against it.
  double deadline_ms = 0.0;
  // Certify the result before responding. -1 = server default.
  int verify = -1;
  // Vertices whose distances the response should carry verbatim
  // (bounded by kMaxTargets).
  std::vector<graph::VertexId> targets;
  // Algorithm knobs (validated finite). Each is part of the cache key
  // only for the algorithms that read it.
  double set_point = 0.0;  // self-tuning only; 0 = server default
  // Delta-stepping's bucket width and near-far's phase width (part of
  // the coalescing key). 0 = the rounded mean weight for near-far and
  // max weight / max out-degree for delta-stepping.
  std::uint64_t delta = 0;
};

// Upper bound on per-request target lists: a request asking for a
// million distances is a memory-amplification attack, not a query.
inline constexpr std::size_t kMaxTargets = 64;
// Upper bound on a serialized request/response frame.
inline constexpr std::size_t kMaxFrameBytes = 1 << 20;

struct ParsedRequest {
  bool ok = false;
  Request request;    // valid when ok
  std::string error;  // parse/validation detail when !ok
};

// Parses and validates one request document. `num_vertices` bounds
// source/target ids. Never throws on malformed input.
ParsedRequest parse_request(std::string_view line,
                            std::uint64_t num_vertices);

struct TargetDistance {
  graph::VertexId vertex = 0;
  graph::Distance distance = graph::kInfiniteDistance;
};

// Server -> client message. Exactly one per query request.
struct Response {
  std::string id;
  Status status = Status::kOk;
  std::string error;            // detail for non-ok statuses
  double retry_after_ms = 0.0;  // > 0 on overloaded / shutting_down
  // ok payload:
  std::string algorithm;
  std::uint64_t reached = 0;
  std::uint64_t iterations = 0;
  std::uint64_t improving_relaxations = 0;
  // FNV-1a 64 over the raw distance array: lets a client compare
  // answers across replicas/retries without shipping the array.
  std::uint64_t dist_checksum = 0;
  std::vector<TargetDistance> targets;
  bool cache_hit = false;
  bool verified = false;   // certification ran
  bool certified = false;  // ... and passed
  double queue_ms = 0.0;   // admission -> execution start
  double run_ms = 0.0;     // execution (solve + certify)
  // info payload (cmd == "info"):
  bool has_info = false;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t queue_capacity = 0;
  std::uint64_t workers = 0;
  std::uint64_t cache_entries = 0;
  bool draining = false;
  // health/ready payload (cmd == "health" | "ready"):
  bool has_health = false;
  std::string role;  // "server" | "supervisor"
  bool ready = false;
  std::uint64_t workers_alive = 0;
  std::uint64_t workers_total = 0;
  std::uint64_t restarts = 0;
};

// One JSON object, no trailing newline (the transport adds framing).
// The supervisor uses this to re-serialize a validated request under
// its own routing id before forwarding to a worker (client ids are not
// unique across connections, so they cannot key the in-flight table).
std::string format_request(const Request& request);

// One JSON object, no trailing newline (the transport adds framing).
std::string format_response(const Response& response);

// Parses a response document (the client side). Returns false on
// malformed input (e.g. a torn write) leaving `out` unspecified.
bool parse_response(std::string_view text, Response& out);

}  // namespace sssp::serve
