// Minimal streaming JSON writer for the benchmark harness.
//
// The benches emit machine-readable BENCH_*.json files so the performance
// trajectory can be tracked across commits. The writer covers exactly what
// those files need — objects, arrays, strings, numbers, booleans — with
// round-trip double formatting. Non-finite doubles serialize as null
// (JSON has no Infinity/NaN literals).
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace nldl::util {

/// Round-trip (shortest-exact) JSON representation of a double via
/// std::to_chars, so the output is locale-independent; "null" for NaN and
/// infinities. The same formatter JsonWriter::value(double) uses.
[[nodiscard]] std::string json_number(double value);

/// Room format_json_number needs: the longest shortest round-trip double,
/// "-2.2250738585072014e-308", has 24 characters.
inline constexpr std::size_t kJsonNumberChars = 32;

/// json_number without the allocation: writes the same text into `out`,
/// which must hold kJsonNumberChars characters, and returns one past its
/// end. JsonWriter and json_number format through it.
char* format_json_number(double value, char* out);

/// JSON string literal with the mandatory escapes; the same escaping
/// JsonWriter applies to keys and string values.
[[nodiscard]] std::string json_quote(std::string_view value);

/// json_quote without the allocation: appends the same literal for `text`
/// to `out`. json_quote, JsonWriter and the Chrome export quote through it.
void append_json_quoted(std::string& out, std::string_view text);

/// Streaming writer with explicit scopes:
///
///   JsonWriter json(out);
///   json.begin_object();
///   json.key("trials").value(100);
///   json.key("points").begin_array();
///   ...
///   json.end_array();
///   json.end_object();
///
/// The writer validates scope nesting (misuse throws InvariantError) and
/// pretty-prints with two-space indentation.
///
/// Output is built in a member buffer and handed to the stream in one
/// write() whenever the buffer passes 64 KiB and when the document
/// completes (its root closes), so the whole document is in the stream as
/// soon as the root is written, with the writer still in scope. Do not
/// write to the stream yourself mid-document: those bytes would land
/// ahead of whatever the writer still buffers. Writing after the root
/// (say, a trailing newline) is fine. The destructor flushes whatever is
/// left of an unfinished document and never throws.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}
  ~JsonWriter();
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key; the next value/begin_* call supplies its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(double number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(std::size_t number);
  JsonWriter& value(int number) {
    return value(static_cast<std::int64_t>(number));
  }
  JsonWriter& value(bool boolean);
  JsonWriter& value(std::string_view text);
  /// Without this overload a string literal would bind to value(bool).
  JsonWriter& value(const char* text) {
    return value(std::string_view(text));
  }

  /// True when every scope has been closed.
  [[nodiscard]] bool complete() const noexcept {
    return stack_.empty() && wrote_root_;
  }

 private:
  enum class Scope { kObject, kArray };
  struct Frame {
    Scope scope;
    bool has_items;
  };

  void prepare_value();
  void indent();
  void open(Scope scope, char bracket);
  void close(char bracket);
  /// After a value: flush a completed document or a full buffer.
  void finish_value();
  void flush();

  std::ostream& out_;
  std::string buffer_;
  std::vector<Frame> stack_;
  bool pending_key_ = false;
  bool wrote_root_ = false;
};

}  // namespace nldl::util
