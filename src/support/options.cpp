#include "support/options.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "support/check.hpp"

namespace cpx {
namespace {

/// Strict parse of the whole of `text` as a double; `what` names the value
/// in the error ("--rate", "--ppc-list element 2").
double parse_double(const std::string& what, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  CPX_REQUIRE(end != text.c_str() && end != nullptr && *end == '\0',
              "Options: " << what << " expects a number, got '" << text
                          << "'");
  // ERANGE overflow saturates to +/-HUGE_VAL — reject it. ERANGE underflow
  // (denormal/zero results like 1e-400) is representable enough to accept.
  CPX_REQUIRE(errno != ERANGE || std::abs(v) != HUGE_VAL,
              "Options: " << what << " value '" << text
                          << "' overflows a double");
  return v;
}

}  // namespace

Options Options::parse(int argc, const char* const* argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      opts.positionals_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    CPX_REQUIRE(!arg.empty(), "Options: bare '--' is not a valid option");
    // Only --key=value and boolean --flag forms are supported; a separate
    // "--key value" form would be ambiguous with positional arguments.
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      opts.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      opts.values_[arg] = "true";
    }
  }
  return opts;
}

bool Options::has(const std::string& key) const {
  return values_.count(key) != 0;
}

void Options::reject_unknown(
    std::initializer_list<std::string_view> known) const {
  for (const auto& entry : values_) {
    const std::string& key = entry.first;
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::string expected;
      for (const std::string_view k : known) {
        expected += (expected.empty() ? "--" : ", --") + std::string(k);
      }
      CPX_REQUIRE(false, "Options: unknown option --"
                             << key << " (expected one of " << expected
                             << ")");
    }
  }
}

std::string Options::get_string(const std::string& key,
                                const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long long Options::get_int(const std::string& key, long long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& text = it->second;
  CPX_REQUIRE(!text.empty(),
              "Options: --" << key << " expects an integer, got an empty "
                               "value (did you mean --"
                            << key << "=<n>?)");
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  CPX_REQUIRE(end != text.c_str() && end != nullptr && *end == '\0',
              "Options: --" << key << " expects an integer, got '" << text
                            << "'");
  CPX_REQUIRE(errno != ERANGE,
              "Options: --" << key << " value '" << text
                            << "' is out of range for a 64-bit integer");
  return v;
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& text = it->second;
  CPX_REQUIRE(!text.empty(),
              "Options: --" << key << " expects a number, got an empty "
                               "value (did you mean --"
                            << key << "=<x>?)");
  return parse_double("--" + key, text);
}

std::vector<double> Options::get_double_list(
    const std::string& key, std::vector<double> fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& text = it->second;
  std::vector<double> out;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = std::min(text.find(',', begin), text.size());
    out.push_back(parse_double(
        "--" + key + " element " + std::to_string(out.size() + 1),
        text.substr(begin, comma - begin)));
    if (comma == text.size()) {
      return out;
    }
    begin = comma + 1;
  }
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  CPX_REQUIRE(false, "Options: --" << key << " expects a boolean, got '" << v
                                   << "'");
  return fallback;  // unreachable
}

void Options::describe(const std::string& key, const std::string& help) {
  docs_.emplace_back(key, help);
}

std::string Options::help_text(const std::string& program) const {
  std::ostringstream oss;
  oss << "usage: " << program << " [options]\n";
  for (const auto& [key, help] : docs_) {
    oss << "  --" << key << "\n      " << help << "\n";
  }
  return oss.str();
}

}  // namespace cpx
