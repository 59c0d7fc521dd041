#include "serve/protocol.hpp"

#include <cmath>
#include <sstream>

#include "obs/json.hpp"

namespace sssp::serve {

const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kOverloaded: return "overloaded";
    case Status::kExpired: return "expired";
    case Status::kInvalid: return "invalid";
    case Status::kError: return "error";
    case Status::kShuttingDown: return "shutting_down";
  }
  return "unknown";
}

bool is_served_algorithm(std::string_view name) noexcept {
  return name == "near-far" || name == "dijkstra" ||
         name == "delta-stepping" || name == "self-tuning";
}

namespace {

ParsedRequest reject(std::string id, std::string detail) {
  ParsedRequest parsed;
  parsed.ok = false;
  parsed.request.id = std::move(id);
  parsed.error = std::move(detail);
  return parsed;
}

// Accepts a JSON string or a non-negative integer number as an id and
// canonicalizes it to a string (clients commonly use sequence numbers).
bool extract_id(const obs::JsonValue& doc, std::string& id) {
  const obs::JsonValue* v = doc.find("id");
  if (v == nullptr) return false;
  if (v->type == obs::JsonValue::Type::kString) {
    if (v->string.empty() || v->string.size() > 128) return false;
    id = v->string;
    return true;
  }
  if (v->type == obs::JsonValue::Type::kNumber) {
    if (!(v->number >= 0) || v->number != std::floor(v->number) ||
        v->number > 1e15)
      return false;
    id = std::to_string(static_cast<std::uint64_t>(v->number));
    return true;
  }
  return false;
}

// A vertex id: integral, in [0, num_vertices).
bool extract_vertex(const obs::JsonValue& v, std::uint64_t num_vertices,
                    graph::VertexId& out) {
  if (v.type != obs::JsonValue::Type::kNumber) return false;
  if (!(v.number >= 0) || v.number != std::floor(v.number)) return false;
  if (v.number >= static_cast<double>(num_vertices)) return false;
  out = static_cast<graph::VertexId>(v.number);
  return true;
}

}  // namespace

ParsedRequest parse_request(std::string_view line,
                            std::uint64_t num_vertices) {
  if (line.size() > kMaxFrameBytes)
    return reject("", "request exceeds max frame size");
  obs::JsonValue doc;
  if (!obs::parse_json(line, doc)) return reject("", "malformed JSON");
  if (!doc.is_object()) return reject("", "request must be a JSON object");

  std::string id;
  if (!extract_id(doc, id))
    return reject("", "missing or malformed 'id' (string or small integer)");

  ParsedRequest parsed;
  parsed.request.id = id;

  const std::string cmd = doc.string_or("cmd", "query");
  if (cmd != "query" && cmd != "info" && cmd != "health" && cmd != "ready")
    return reject(id, "unknown cmd '" + cmd +
                          "' (expected query, info, health, or ready)");
  parsed.request.cmd = cmd;
  if (cmd != "query") {
    parsed.ok = true;
    return parsed;
  }

  const obs::JsonValue* source = doc.find("source");
  if (source == nullptr) return reject(id, "missing 'source'");
  if (!extract_vertex(*source, num_vertices, parsed.request.source))
    return reject(id, "'source' must be an integer in [0, " +
                          std::to_string(num_vertices) + ")");

  if (const obs::JsonValue* algo = doc.find("algorithm"); algo != nullptr) {
    if (algo->type != obs::JsonValue::Type::kString)
      return reject(id, "'algorithm' must be a string");
    const std::string& name = algo->string;
    if (!is_served_algorithm(name))
      return reject(id, "unknown algorithm '" + name + "'");
    parsed.request.algorithm = name;
  }

  if (const obs::JsonValue* dl = doc.find("deadline_ms"); dl != nullptr) {
    if (dl->type != obs::JsonValue::Type::kNumber ||
        !std::isfinite(dl->number) || dl->number < 0)
      return reject(id, "'deadline_ms' must be a finite number >= 0");
    parsed.request.deadline_ms = dl->number;
  }

  if (const obs::JsonValue* verify = doc.find("verify"); verify != nullptr) {
    if (verify->type != obs::JsonValue::Type::kBool)
      return reject(id, "'verify' must be a boolean");
    parsed.request.verify = verify->boolean ? 1 : 0;
  }

  if (const obs::JsonValue* targets = doc.find("targets");
      targets != nullptr) {
    if (!targets->is_array())
      return reject(id, "'targets' must be an array of vertex ids");
    if (targets->array.size() > kMaxTargets)
      return reject(id, "'targets' capped at " +
                            std::to_string(kMaxTargets) + " entries");
    for (const obs::JsonValue& t : targets->array) {
      graph::VertexId v = 0;
      if (!extract_vertex(t, num_vertices, v))
        return reject(id, "'targets' entries must be integers in [0, " +
                              std::to_string(num_vertices) + ")");
      parsed.request.targets.push_back(v);
    }
  }

  if (const obs::JsonValue* sp = doc.find("set_point"); sp != nullptr) {
    if (sp->type != obs::JsonValue::Type::kNumber ||
        !std::isfinite(sp->number) || sp->number < 0)
      return reject(id, "'set_point' must be a finite number >= 0");
    parsed.request.set_point = sp->number;
  }

  if (const obs::JsonValue* delta = doc.find("delta"); delta != nullptr) {
    if (delta->type != obs::JsonValue::Type::kNumber ||
        !(delta->number >= 0) || delta->number != std::floor(delta->number) ||
        delta->number > 1e15)
      return reject(id, "'delta' must be a non-negative integer");
    parsed.request.delta = static_cast<std::uint64_t>(delta->number);
  }

  parsed.ok = true;
  return parsed;
}

std::string format_request(const Request& r) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("id").value(r.id);
  w.key("cmd").value(r.cmd);
  if (r.cmd == "query") {
    w.key("source").value(static_cast<std::uint64_t>(r.source));
    if (!r.algorithm.empty()) w.key("algorithm").value(r.algorithm);
    if (r.deadline_ms > 0.0) w.key("deadline_ms").value(r.deadline_ms);
    if (r.verify >= 0) w.key("verify").value(r.verify != 0);
    if (!r.targets.empty()) {
      w.key("targets").begin_array();
      for (graph::VertexId t : r.targets)
        w.value(static_cast<std::uint64_t>(t));
      w.end_array();
    }
    if (r.set_point > 0.0) w.key("set_point").value(r.set_point);
    if (r.delta > 0) w.key("delta").value(r.delta);
  }
  w.end_object();
  return out.str();
}

std::string format_response(const Response& r) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("id").value(r.id);
  w.key("status").value(to_string(r.status));
  if (!r.error.empty()) w.key("error").value(r.error);
  if (r.retry_after_ms > 0.0) w.key("retry_after_ms").value(r.retry_after_ms);
  if (r.status == Status::kOk && !r.has_info && !r.has_health) {
    w.key("algorithm").value(r.algorithm);
    w.key("reached").value(r.reached);
    w.key("iterations").value(r.iterations);
    w.key("improving_relaxations").value(r.improving_relaxations);
    w.key("dist_checksum").value(r.dist_checksum);
    if (!r.targets.empty()) {
      w.key("targets").begin_array();
      for (const TargetDistance& t : r.targets) {
        w.begin_object();
        w.key("v").value(t.vertex);
        // INF serializes as null: JSON numbers cannot carry 2^64-1
        // exactly and "unreachable" is what the client actually means.
        w.key("dist");
        if (t.distance == graph::kInfiniteDistance)
          w.null();
        else
          w.value(static_cast<std::uint64_t>(t.distance));
        w.end_object();
      }
      w.end_array();
    }
    w.key("cache").value(r.cache_hit ? "hit" : "miss");
    w.key("verified").value(r.verified);
    if (r.verified) w.key("certified").value(r.certified);
    w.key("queue_ms").value(r.queue_ms);
    w.key("run_ms").value(r.run_ms);
  }
  if (r.has_health) {
    w.key("health").begin_object();
    w.key("role").value(r.role);
    w.key("ready").value(r.ready);
    w.key("workers_alive").value(r.workers_alive);
    w.key("workers_total").value(r.workers_total);
    w.key("restarts").value(r.restarts);
    w.end_object();
  }
  if (r.has_info) {
    w.key("info").begin_object();
    w.key("num_vertices").value(r.num_vertices);
    w.key("num_edges").value(r.num_edges);
    w.key("graph_fingerprint").value(r.graph_fingerprint);
    w.key("queue_capacity").value(r.queue_capacity);
    w.key("workers").value(r.workers);
    w.key("cache_entries").value(r.cache_entries);
    w.key("draining").value(r.draining);
    w.end_object();
  }
  w.end_object();
  return out.str();
}

bool parse_response(std::string_view text, Response& out) {
  obs::JsonValue doc;
  if (!obs::parse_json(text, doc) || !doc.is_object()) return false;
  out = Response{};
  out.id = doc.string_or("id", "");
  const std::string status = doc.string_or("status", "");
  if (status == "ok") out.status = Status::kOk;
  else if (status == "overloaded") out.status = Status::kOverloaded;
  else if (status == "expired") out.status = Status::kExpired;
  else if (status == "invalid") out.status = Status::kInvalid;
  else if (status == "error") out.status = Status::kError;
  else if (status == "shutting_down") out.status = Status::kShuttingDown;
  else return false;
  out.error = doc.string_or("error", "");
  out.retry_after_ms = doc.number_or("retry_after_ms", 0.0);
  out.algorithm = doc.string_or("algorithm", "");
  out.reached = static_cast<std::uint64_t>(doc.number_or("reached", 0.0));
  out.iterations =
      static_cast<std::uint64_t>(doc.number_or("iterations", 0.0));
  out.improving_relaxations = static_cast<std::uint64_t>(
      doc.number_or("improving_relaxations", 0.0));
  out.dist_checksum =
      static_cast<std::uint64_t>(doc.number_or("dist_checksum", 0.0));
  out.cache_hit = doc.string_or("cache", "miss") == "hit";
  if (const obs::JsonValue* v = doc.find("verified");
      v != nullptr && v->type == obs::JsonValue::Type::kBool)
    out.verified = v->boolean;
  if (const obs::JsonValue* v = doc.find("certified");
      v != nullptr && v->type == obs::JsonValue::Type::kBool)
    out.certified = v->boolean;
  out.queue_ms = doc.number_or("queue_ms", 0.0);
  out.run_ms = doc.number_or("run_ms", 0.0);
  if (const obs::JsonValue* targets = doc.find("targets");
      targets != nullptr && targets->is_array()) {
    for (const obs::JsonValue& t : targets->array) {
      TargetDistance td;
      td.vertex = static_cast<graph::VertexId>(t.number_or("v", 0.0));
      const obs::JsonValue* dist = t.find("dist");
      td.distance = (dist == nullptr || dist->is_null())
                        ? graph::kInfiniteDistance
                        : static_cast<graph::Distance>(dist->number);
      out.targets.push_back(td);
    }
  }
  if (const obs::JsonValue* health = doc.find("health");
      health != nullptr && health->is_object()) {
    out.has_health = true;
    out.role = health->string_or("role", "");
    if (const obs::JsonValue* r = health->find("ready");
        r != nullptr && r->type == obs::JsonValue::Type::kBool)
      out.ready = r->boolean;
    out.workers_alive =
        static_cast<std::uint64_t>(health->number_or("workers_alive", 0.0));
    out.workers_total =
        static_cast<std::uint64_t>(health->number_or("workers_total", 0.0));
    out.restarts =
        static_cast<std::uint64_t>(health->number_or("restarts", 0.0));
  }
  if (const obs::JsonValue* info = doc.find("info");
      info != nullptr && info->is_object()) {
    out.has_info = true;
    out.num_vertices =
        static_cast<std::uint64_t>(info->number_or("num_vertices", 0.0));
    out.num_edges =
        static_cast<std::uint64_t>(info->number_or("num_edges", 0.0));
    out.graph_fingerprint = static_cast<std::uint64_t>(
        info->number_or("graph_fingerprint", 0.0));
    out.queue_capacity =
        static_cast<std::uint64_t>(info->number_or("queue_capacity", 0.0));
    out.workers = static_cast<std::uint64_t>(info->number_or("workers", 0.0));
    out.cache_entries =
        static_cast<std::uint64_t>(info->number_or("cache_entries", 0.0));
    if (const obs::JsonValue* d = info->find("draining");
        d != nullptr && d->type == obs::JsonValue::Type::kBool)
      out.draining = d->boolean;
  }
  return true;
}

}  // namespace sssp::serve
