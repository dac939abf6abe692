// Tiny command-line argument parser for examples and benches.
//
// Supports --key=value and --flag forms; anything else is a positional
// argument. Unknown keys are tolerated by default (benches pass flags
// through); strict CLIs can validate against values().
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace nldl::util {

class Args {
 public:
  Args(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// The whole value must be a decimal integer; anything else (`3x`,
  /// `abc`, out of range) throws PreconditionError naming the flag.
  [[nodiscard]] long long get_int(const std::string& key,
                                  long long fallback) const;
  /// get_int for counts (sizes, repetitions, threads): a negative value
  /// throws PreconditionError instead of wrapping to 2^64 - 1.
  [[nodiscard]] std::size_t get_count(const std::string& key,
                                      std::size_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// --flag or --flag=true/1/yes => true; --flag=false/0/no => false.
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Every parsed --key, for CLIs that reject flags they don't know.
  [[nodiscard]] const std::map<std::string, std::string>& values()
      const noexcept {
    return values_;
  }

  [[nodiscard]] const std::string& program() const noexcept {
    return program_;
  }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace nldl::util
