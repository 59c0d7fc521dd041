// Minimal JSON support for the observability layer: a streaming writer
// (used by the metrics exporter, the trace sink, and the run report)
// and a strict validator (used by tests and by tools that re-check the
// documents they just wrote).
//
// The writer tracks nesting in a small state stack and inserts commas
// automatically, so call sites read like the document they produce:
//
//   JsonWriter w(out);
//   w.begin_object();
//   w.key("x1").value(42);
//   w.key("iterations").begin_array(); ... w.end_array();
//   w.end_object();
//
// Non-finite doubles serialize as null (JSON has no inf/nan).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace sssp::obs {

// Escapes `s` for inclusion inside a JSON string literal (no quotes).
std::string json_escape(std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(&out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  // Object member name; must be followed by a value or container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double d);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint32_t v) { return value(std::uint64_t{v}); }
  JsonWriter& value(int v) { return value(std::int64_t{v}); }
  JsonWriter& value(bool b);
  JsonWriter& null();

 private:
  void before_value();

  std::ostream* out_;
  // One char of state per nesting level: 'o'/'O' object (empty/non-empty),
  // 'a'/'A' array (empty/non-empty), 'k' key emitted awaiting value.
  std::string stack_;
};

// True iff `text` is one complete JSON document: parse_json with the
// tree discarded.
bool json_valid(std::string_view text);

// Parsed JSON document tree — enough for the serve protocol's request
// parser and the report round-trip tests. Numbers are doubles (fine for
// our payloads: counters fit in 53 bits, everything else is already a
// double).
struct JsonValue {
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_null() const noexcept { return type == Type::kNull; }
  bool is_object() const noexcept { return type == Type::kObject; }
  bool is_array() const noexcept { return type == Type::kArray; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const {
    if (type != Type::kObject) return nullptr;
    const auto it = object.find(std::string(key));
    return it != object.end() ? &it->second : nullptr;
  }
  double number_or(std::string_view key, double fallback) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
  }
  std::string string_or(std::string_view key, std::string fallback) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->type == Type::kString ? v->string
                                                    : std::move(fallback);
  }
};

// Strict recursive-descent parse of a complete JSON document (single
// value, arbitrary nesting; depth-capped at 256 to keep the parser
// itself safe on adversarial input). Returns false leaving `out`
// unspecified on malformed input; \uXXXX escapes outside ASCII are
// replaced with '?' (our documents never emit them), and a repeated
// object key keeps its last value.
bool parse_json(std::string_view text, JsonValue& out);

}  // namespace sssp::obs
