// A tiny command-line flag parser shared by the examples and the
// benchmark harness. Supports "--name=value", "--name value", and
// boolean "--name" / "--no-name". Unknown flags are reported as errors
// so experiment scripts fail loudly rather than silently ignoring typos.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace sssp::util {

// A command-line error: an unknown flag, or a value that does not parse
// as the type it is read as, is out of range or names no accepted
// choice. Tools exit 2 on it (tools/tool_common.hpp).
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// Parses `text` as a decimal integer in [0, max] for the flag `name`,
// for values read out of a larger flag text (a list item, one half of
// a pair). Throws FlagError on empty text, a sign or any other
// non-digit, trailing junk, or a value above max.
std::uint64_t parse_unsigned(const std::string& name, const std::string& text,
                             std::uint64_t max);

class Flags {
 public:
  // Parses argv; throws std::invalid_argument on malformed input.
  // Positional (non --) arguments are collected in positional().
  Flags(int argc, const char* const* argv);

  // Register flags with defaults and help text; call before get_* so
  // --help output is complete and unknown-flag detection works.
  void define(const std::string& name, const std::string& default_value,
              const std::string& help);

  bool has(const std::string& name) const;
  // The typed getters throw FlagError when the value does not parse.
  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  // Returns true if --help was passed; prints usage to stdout.
  bool handle_help(const std::string& program_description) const;

  // Throws FlagError if any parsed flag was never defined.
  void check_unknown() const;

 private:
  struct Spec {
    std::string default_value;
    std::string help;
  };

  std::string lookup(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  std::map<std::string, Spec> specs_;
  std::vector<std::string> positional_;
};

}  // namespace sssp::util
