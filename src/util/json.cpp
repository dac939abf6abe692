#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "util/assert.hpp"

namespace nldl::util {

namespace {

/// Buffered bytes that trigger a write() before the document completes.
constexpr std::size_t kFlushBytes = std::size_t{64} * 1024;

void append_number(std::string& out, double value) {
  char buffer[kJsonNumberChars];
  out.append(buffer, format_json_number(value, buffer));
}

template <typename Integer>
void append_integer(std::string& out, Integer value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  NLDL_ASSERT(result.ec == std::errc{}, "integer does not fit json buffer");
  out.append(buffer, result.ptr);
}

}  // namespace

void append_json_quoted(std::string& out, std::string_view text) {
  out += '"';
  // Runs with nothing to escape go in with one append each.
  std::size_t run = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char ch = text[i];
    const auto byte = static_cast<unsigned char>(ch);
    if (ch != '"' && ch != '\\' && byte >= 0x20) continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr const char* kHex = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[byte >> 4],
                               kHex[byte & 0xf]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
  out += '"';
}

char* format_json_number(double value, char* out) {
  if (!std::isfinite(value)) {
    constexpr std::string_view kNull = "null";
    return std::copy(kNull.begin(), kNull.end(), out);
  }
  // std::to_chars is locale-independent and emits the shortest string that
  // round-trips the exact double — unlike %g/%lf, which honor the C locale
  // and would print a comma decimal point (invalid JSON) under e.g. de_DE.
  const auto result = std::to_chars(out, out + kJsonNumberChars, value);
  NLDL_ASSERT(result.ec == std::errc{}, "double does not fit json buffer");
  double parsed = 0.0;
  const auto back = std::from_chars(out, result.ptr, parsed);
  NLDL_ASSERT(back.ec == std::errc{} && parsed == value,
              "json_number failed to round-trip");
  return result.ptr;
}

std::string json_number(double value) {
  std::string out;
  append_number(out, value);
  return out;
}

std::string json_quote(std::string_view value) {
  std::string out;
  append_json_quoted(out, value);
  return out;
}

JsonWriter::~JsonWriter() {
  try {
    flush();
  } catch (...) {
    // Only a stream set to throw gets here, and it set badbit before
    // throwing, so the failure stays readable from the stream; a
    // destructor must not throw it again.
  }
}

void JsonWriter::flush() {
  if (buffer_.empty()) return;
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  buffer_.clear();
}

void JsonWriter::finish_value() {
  if (stack_.empty() || buffer_.size() >= kFlushBytes) flush();
}

void JsonWriter::indent() {
  buffer_ += '\n';
  buffer_.append(2 * stack_.size(), ' ');
}

void JsonWriter::prepare_value() {
  NLDL_ASSERT(!wrote_root_ || !stack_.empty(),
              "JSON document already complete");
  if (stack_.empty()) {
    wrote_root_ = true;
    return;
  }
  Frame& frame = stack_.back();
  if (frame.scope == Scope::kObject) {
    NLDL_ASSERT(pending_key_, "object values need a key() first");
    pending_key_ = false;
    return;
  }
  if (frame.has_items) buffer_ += ',';
  frame.has_items = true;
  indent();
}

void JsonWriter::open(Scope scope, char bracket) {
  prepare_value();
  buffer_ += bracket;
  stack_.push_back({scope, false});
}

void JsonWriter::close(char bracket) {
  const bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) indent();
  buffer_ += bracket;
  if (stack_.empty()) buffer_ += '\n';
  finish_value();
}

JsonWriter& JsonWriter::key(std::string_view name) {
  NLDL_ASSERT(!stack_.empty() && stack_.back().scope == Scope::kObject,
              "key() outside an object");
  NLDL_ASSERT(!pending_key_, "two key() calls in a row");
  Frame& frame = stack_.back();
  if (frame.has_items) buffer_ += ',';
  frame.has_items = true;
  indent();
  append_json_quoted(buffer_, name);
  buffer_ += ": ";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  open(Scope::kObject, '{');
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  NLDL_ASSERT(!stack_.empty() && stack_.back().scope == Scope::kObject,
              "end_object() without begin_object()");
  NLDL_ASSERT(!pending_key_, "dangling key() at end_object()");
  close('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  open(Scope::kArray, '[');
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  NLDL_ASSERT(!stack_.empty() && stack_.back().scope == Scope::kArray,
              "end_array() without begin_array()");
  close(']');
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  prepare_value();
  append_number(buffer_, number);
  finish_value();
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  prepare_value();
  append_integer(buffer_, number);
  finish_value();
  return *this;
}

JsonWriter& JsonWriter::value(std::size_t number) {
  prepare_value();
  append_integer(buffer_, number);
  finish_value();
  return *this;
}

JsonWriter& JsonWriter::value(bool boolean) {
  prepare_value();
  buffer_ += boolean ? "true" : "false";
  finish_value();
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  prepare_value();
  append_json_quoted(buffer_, text);
  finish_value();
  return *this;
}

}  // namespace nldl::util
