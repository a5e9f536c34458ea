#pragma once
// Minimal command-line option parsing shared by the examples and the bench
// binaries. Supports --key=value and boolean --flag forms.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cpx {

class Options {
 public:
  Options() = default;

  /// Parses argv; unknown positional arguments are kept in positionals().
  /// Throws CheckError on malformed input (e.g. "--" followed by nothing).
  static Options parse(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  /// Throws CheckError naming the first parsed key that is not in `known`,
  /// so a misspelt option fails instead of running the default.
  void reject_unknown(std::initializer_list<std::string_view> known) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  long long get_int(const std::string& key, long long fallback) const;
  double get_double(const std::string& key, double fallback) const;
  /// A comma-separated list of numbers ("--ppc-list=30,100"), each element
  /// parsed as strictly as get_double; an empty or malformed element
  /// throws CheckError naming it.
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Registers documentation for --help output.
  void describe(const std::string& key, const std::string& help);
  std::string help_text(const std::string& program) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
  std::vector<std::pair<std::string, std::string>> docs_;
};

}  // namespace cpx
