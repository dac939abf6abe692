#include "util/cli.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "util/assert.hpp"

namespace nldl::util {

Args::Args(int argc, const char* const* argv) {
  NLDL_REQUIRE(argc >= 1, "argc must include the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "";  // bare flag
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool Args::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string Args::get_string(const std::string& key,
                             const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long long Args::get_int(const std::string& key, long long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return fallback;
  const std::string& text = it->second;
  long long value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  NLDL_REQUIRE(ec == std::errc() && ptr == text.data() + text.size(),
               "unparseable integer for --" + key + ": " + text);
  return value;
}

std::size_t Args::get_count(const std::string& key,
                            std::size_t fallback) const {
  const std::string text = get_string(key, "");
  if (text.empty()) return fallback;
  const long long value = get_int(key, 0);
  NLDL_REQUIRE(value >= 0, "--" + key + " must not be negative: " + text);
  return static_cast<std::size_t>(value);
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return fallback;
  // Locale-independent parse: std::stod honors LC_NUMERIC, so a
  // comma-decimal locale would silently misread "--load=1.5".
  const std::string& text = it->second;
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  NLDL_REQUIRE(ec == std::errc() && ptr == text.data() + text.size(),
               "unparseable number for --" + key + ": " + text);
  return value;
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::string value = it->second;
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  if (value.empty() || value == "1" || value == "true" || value == "yes") {
    return true;
  }
  if (value == "0" || value == "false" || value == "no") return false;
  NLDL_REQUIRE(false, "unparseable boolean for --" + key + ": " + value);
  return fallback;  // unreachable
}

}  // namespace nldl::util
