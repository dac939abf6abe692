// Minimal recursive-descent JSON parser — the read side of util/json.hpp.
//
// Exists for the observability tooling: validating exported Chrome
// trace-event files and diffing the deterministic payload of two
// BENCH_*.json artifacts (tools/trace_check, obs/validate.hpp). It
// parses strict JSON into an order-preserving document tree; numbers go
// through std::from_chars so parsing is locale-independent (the same
// rule util::json_number follows on the write side).
//
// Deliberately small: no streaming, no comments, no trailing commas, no
// duplicate-key policy beyond "both are kept in order". Malformed input
// throws util::PreconditionError with a byte offset.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nldl::util {

/// One JSON document node. A tagged aggregate rather than a std::variant
/// so the tree is cheap to walk; object members preserve source order
/// (determinism culture: no unordered containers).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const noexcept { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::kObject;
  }

  /// First member with this key, or nullptr (also nullptr when not an
  /// object). Lookup is linear — documents here are small.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parse a complete JSON document. Throws util::PreconditionError on
/// malformed input, trailing garbage, or nesting deeper than 192 levels.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace nldl::util
