#include "util/flags.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace sssp::util {

std::uint64_t parse_unsigned(const std::string& name, const std::string& text,
                             std::uint64_t max) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  // For an unsigned value from_chars takes digits only: no sign, no
  // whitespace, and nothing at all fails too.
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || value > max)
    throw FlagError("flag --" + name + " expects an integer in [0, " +
                    std::to_string(max) + "], got '" + text + "'");
  return value;
}

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    if (arg.empty()) {  // "--" terminator: rest is positional
      for (++i; i < argc; ++i) positional_.emplace_back(argv[i]);
      break;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--no-name" boolean negation.
    if (arg.rfind("no-", 0) == 0) {
      values_[arg.substr(3)] = "false";
      continue;
    }
    // "--name value" when the next token is not a flag, else boolean true.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0 &&
        arg != "help") {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

void Flags::define(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  specs_[name] = Spec{default_value, help};
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::lookup(const std::string& name) const {
  if (auto it = values_.find(name); it != values_.end()) return it->second;
  if (auto it = specs_.find(name); it != specs_.end())
    return it->second.default_value;
  throw std::invalid_argument("undefined flag --" + name);
}

std::string Flags::get_string(const std::string& name) const {
  return lookup(name);
}

std::int64_t Flags::get_int(const std::string& name) const {
  const std::string v = lookup(name);
  try {
    std::size_t pos = 0;
    const std::int64_t out = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return out;
  } catch (const std::exception&) {
    throw FlagError("flag --" + name + " expects an integer, got '" + v +
                    "'");
  }
}

double Flags::get_double(const std::string& name) const {
  const std::string v = lookup(name);
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return out;
  } catch (const std::exception&) {
    throw FlagError("flag --" + name + " expects a number, got '" + v +
                    "'");
  }
}

bool Flags::get_bool(const std::string& name) const {
  const std::string v = lookup(name);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw FlagError("flag --" + name + " expects a boolean, got '" + v +
                  "'");
}

bool Flags::handle_help(const std::string& program_description) const {
  if (!values_.count("help")) return false;
  std::printf("%s\n\nUsage: %s [flags]\n\nFlags:\n", program_description.c_str(),
              program_.c_str());
  for (const auto& [name, spec] : specs_) {
    std::printf("  --%-24s %s (default: %s)\n", name.c_str(), spec.help.c_str(),
                spec.default_value.empty() ? "\"\"" : spec.default_value.c_str());
  }
  return true;
}

void Flags::check_unknown() const {
  for (const auto& [name, value] : values_) {
    (void)value;
    if (name == "help") continue;
    if (!specs_.count(name))
      throw FlagError("unknown flag --" + name);
  }
}

}  // namespace sssp::util
