// JSON reading — the read side of util/json.hpp.
//
// Exists for the observability tooling: validating and decoding exported
// Chrome trace-event files, and diffing the deterministic payload of two
// BENCH_*.json artifacts (tools/trace_check, obs/validate.hpp). One
// grammar serves two interfaces:
//
//   * JsonReader, a pull reader over a document held in memory. Each
//     next() yields one token, so a caller can check or decode a large
//     document (a 70 MB trace) in one pass while holding only what it
//     keeps.
//   * parse_json, an order-preserving document tree built over the
//     reader, for the small documents that are compared whole.
//
// The grammar is strict JSON: no comments, no trailing commas, numbers
// through std::from_chars so reading is locale-independent (the rule
// util::json_number follows on the write side), and no duplicate-key
// policy beyond "both are kept in order". Malformed input throws
// util::PreconditionError "json parse error at byte N: ...", where N is
// the offset of the first malformed byte in document order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nldl::util {

/// Pull reader over one complete JSON document.
///
/// next() returns the document's tokens in order: a container as its
/// kBegin*/kEnd* pair, an object member as a kKey followed by its value.
/// Once the root value has closed, next() checks that only whitespace
/// follows it and returns kEnd (again on every later call).
///
/// string() holds the unescaped text of a kKey or kString: a view into
/// the document when the string holds no escape, into a buffer the
/// reader owns when it does. Either way it is valid only until the next
/// call to next() or skip(), and the document must outlive the reader.
///
/// Containers nest at most 192 levels deep: a value inside more open
/// containers throws. Errors fire at the same offsets whether a caller
/// reads every token or skips values, so any pass over the whole
/// document rejects exactly what parse_json rejects, with the same
/// message.
class JsonReader {
 public:
  enum class Token {
    kBeginObject,
    kEndObject,
    kBeginArray,
    kEndArray,
    kKey,
    kString,
    kNumber,
    kTrue,
    kFalse,
    kNull,
    kEnd,
  };

  explicit JsonReader(std::string_view text) noexcept : text_(text) {}

  /// The next token; throws util::PreconditionError on malformed input.
  [[nodiscard]] Token next();

  /// Skip the rest of the value whose first token next() just returned
  /// (a no-op for a scalar), checking its syntax on the way.
  void skip(Token first);

  /// The text of the last kKey or kString.
  [[nodiscard]] std::string_view string() const noexcept { return string_; }
  /// The value of the last kNumber.
  [[nodiscard]] double number() const noexcept { return number_; }

 private:
  /// What the next token may be: a value, an array's first element or
  /// its end, an object's first key or its end, a separator or the end
  /// of the enclosing container, or the end of the document.
  enum class Expect { kValue, kFirstElement, kFirstKey, kSeparator, kEnd };

  [[noreturn]] void fail(const std::string& what) const;
  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const;
  char take();
  void skip_whitespace() noexcept;
  void expect(char c);
  void expect_literal(std::string_view literal);
  Token value();
  Token key();
  Token close();
  void after_value() noexcept;
  void read_string();
  void read_escaped(std::size_t begin);
  std::uint32_t read_hex4();
  std::uint32_t read_codepoint();
  void read_number();

  std::string_view text_;
  std::size_t pos_ = 0;
  Expect expect_ = Expect::kValue;
  std::vector<char> open_;  ///< the closing bracket of each open container
  std::string buffer_;      ///< an escaped string's unescaped text
  std::string_view string_;
  double number_ = 0.0;
};

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

/// Parse a complete JSON document into a tree. Throws
/// util::PreconditionError on malformed input, trailing garbage, or
/// nesting deeper than 192 levels.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace nldl::util
