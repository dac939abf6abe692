// Contract-checking macros used across the nldl libraries.
//
// All checks are active in every build type: the library is a research
// instrument and silent precondition violations would corrupt experiment
// results. Violations throw, so tests can assert on them.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace nldl::util {

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// What a PreconditionError tells a user: the text after NLDL_REQUIRE's
/// " — ", without the source file, line and condition before it (they
/// move with every edit and every checkout), or the whole message when it
/// has none (a JSON parse error).
[[nodiscard]] inline std::string message_of(const PreconditionError& error) {
  const std::string_view what = error.what();
  constexpr std::string_view kDash = " — ";
  const auto at = what.find(kDash);
  return std::string(at == std::string_view::npos
                         ? what
                         : what.substr(at + kDash.size()));
}

/// Thrown when an internal invariant fails (a library bug, not a user error).
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

[[noreturn]] inline void throw_precondition(const char* expr, const char* file,
                                            int line, const std::string& msg) {
  throw PreconditionError(std::string(file) + ":" + std::to_string(line) +
                          ": precondition failed: " + expr +
                          (msg.empty() ? "" : (" — " + msg)));
}

[[noreturn]] inline void throw_invariant(const char* expr, const char* file,
                                         int line, const std::string& msg) {
  throw InvariantError(std::string(file) + ":" + std::to_string(line) +
                       ": invariant failed: " + expr +
                       (msg.empty() ? "" : (" — " + msg)));
}

}  // namespace nldl::util

/// Validate a documented precondition of a public API entry point.
#define NLDL_REQUIRE(cond, msg)                                          \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::nldl::util::throw_precondition(#cond, __FILE__, __LINE__, msg);  \
    }                                                                    \
  } while (0)

/// Validate an internal invariant; failure indicates a bug in nldl itself.
#define NLDL_ASSERT(cond, msg)                                        \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::nldl::util::throw_invariant(#cond, __FILE__, __LINE__, msg);  \
    }                                                                 \
  } while (0)

/// Mark a path control never reaches, such as the end of a function whose
/// switch returns on every enumerator; reaching it is a bug in nldl
/// itself. The call is unconditional and [[noreturn]], so every build
/// sees that the function does not fall off its end (GCC's -Wreturn-type
/// misses that after NLDL_ASSERT(false, ...) in unoptimized TSan builds).
#define NLDL_UNREACHABLE(msg) \
  ::nldl::util::throw_invariant("unreachable", __FILE__, __LINE__, msg)
