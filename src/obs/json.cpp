#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sssp::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::before_value() {
  if (stack_.empty()) return;
  char& top = stack_.back();
  if (top == 'k') {
    stack_.pop_back();  // key consumed by this value
  } else if (top == 'a') {
    top = 'A';
  } else if (top == 'A') {
    *out_ << ',';
  }
  // 'o'/'O' without a pending key is a misuse; the validator in tests
  // catches the malformed output rather than crashing the writer here.
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  *out_ << '{';
  stack_.push_back('o');
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (!stack_.empty()) stack_.pop_back();
  *out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  *out_ << '[';
  stack_.push_back('a');
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (!stack_.empty()) stack_.pop_back();
  *out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (!stack_.empty()) {
    char& top = stack_.back();
    if (top == 'o') {
      top = 'O';
    } else if (top == 'O') {
      *out_ << ',';
    }
  }
  *out_ << '"' << json_escape(name) << "\":";
  stack_.push_back('k');
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_value();
  *out_ << '"' << json_escape(s) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  if (!std::isfinite(d)) return null();
  before_value();
  char buf[40];
  // %.17g round-trips doubles; shorter forms are emitted when exact.
  std::snprintf(buf, sizeof buf, "%.17g", d);
  *out_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  *out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  *out_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  before_value();
  *out_ << (b ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value();
  *out_ << "null";
  return *this;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

// Strict recursive descent over one complete document, building the
// tree as it goes.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;
  static constexpr int kMaxDepth = 256;

  bool eof() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos;
      else
        break;
    }
  }

  bool consume(char c) {
    if (eof() || peek() != c) return false;
    ++pos;
    return true;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  // Appends the unescaped contents to `out`; \uXXXX escapes outside
  // ASCII become '?'.
  bool string(std::string& out) {
    if (!consume('"')) return false;
    while (!eof()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) return false;
      switch (text[pos++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          const char* hex = text.data() + pos;
          if (text.size() - pos < 4 ||
              std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4)
            return false;
          pos += 4;
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool digits() {
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) return false;
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos;
    return true;
  }

  bool number(double& out) {
    const std::size_t begin = pos;
    consume('-');
    if (consume('0')) {
      // no leading zeros
    } else if (!digits()) {
      return false;
    }
    if (consume('.') && !digits()) return false;
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos;
      if (!digits()) return false;
    }
    out = std::strtod(std::string(text.substr(begin, pos - begin)).c_str(),
                      nullptr);
    return true;
  }

  bool value(JsonValue& out) {
    if (++depth > kMaxDepth) return false;
    skip_ws();
    if (eof()) return false;
    bool ok = false;
    switch (peek()) {
      case '{':
        out.type = JsonValue::Type::kObject;
        ok = object(out.object);
        break;
      case '[':
        out.type = JsonValue::Type::kArray;
        ok = array(out.array);
        break;
      case '"':
        out.type = JsonValue::Type::kString;
        ok = string(out.string);
        break;
      case 't':
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = peek() == 't';
        ok = literal(out.boolean ? "true" : "false");
        break;
      case 'n':
        out.type = JsonValue::Type::kNull;
        ok = literal("null");
        break;
      default:
        out.type = JsonValue::Type::kNumber;
        ok = number(out.number);
        break;
    }
    --depth;
    return ok;
  }

  bool object(std::map<std::string, JsonValue>& out) {
    ++pos;  // '{'
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      JsonValue member;
      if (!value(member)) return false;
      out[std::move(key)] = std::move(member);  // a repeated key: last wins
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  bool array(std::vector<JsonValue>& out) {
    ++pos;  // '['
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      if (!value(out.emplace_back())) return false;
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }
};

}  // namespace

bool parse_json(std::string_view text, JsonValue& out) {
  out = JsonValue{};
  Parser p{text};
  if (!p.value(out)) return false;
  p.skip_ws();
  return p.eof();
}

bool json_valid(std::string_view text) {
  JsonValue discarded;
  return parse_json(text, discarded);
}

}  // namespace sssp::obs
