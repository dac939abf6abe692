// Test-local oracle: the document-tree path that read JSON and Chrome
// traces before util::JsonReader. parse() is the recursive-descent parser
// that built a util::JsonValue tree; validate_chrome_trace and
// events_from_chrome_trace walk that tree. expect_matches_tree() checks
// util::parse_json and the one-pass obs:: readers against it on one
// input: the same tree or parse error, the same validation result, and
// the same decoded events bit for bit or the same decode error.
#pragma once

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.hpp"
#include "obs/validate.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace nldl::oracle {

using util::JsonValue;
using util::PreconditionError;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue root = parse_value();
    skip_whitespace();
    NLDL_REQUIRE(pos_ == text_.size(),
                 "trailing characters after JSON document at byte " +
                     std::to_string(pos_));
    return root;
  }

 private:
  static constexpr std::size_t kMaxDepth = 192;

  [[noreturn]] void fail(const std::string& what) const {
    throw PreconditionError("json parse error at byte " +
                            std::to_string(pos_) + ": " + what);
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const {
    if (eof()) fail("unexpected end of input");
    return text_[pos_];
  }
  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void skip_whitespace() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("invalid literal (expected " + std::string(literal) + ")");
    }
    pos_ += literal.size();
  }

  JsonValue parse_value() {
    if (depth_ > kMaxDepth) fail("nesting deeper than 192 levels");
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't': {
        expect_literal("true");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        expect_literal("false");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        expect_literal("null");
        return JsonValue{};
      }
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    ++depth_;
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char c = take();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    --depth_;
    return v;
  }

  JsonValue parse_array() {
    ++depth_;
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_whitespace();
      const char c = take();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    --depth_;
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u':
          append_utf8(out, parse_codepoint());
          break;
        default:
          fail("invalid escape sequence");
      }
    }
    return out;
  }

  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    return value;
  }

  std::uint32_t parse_codepoint() {
    std::uint32_t code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: must be followed by \uDC00..\uDFFF.
      if (eof() || text_.substr(pos_, 2) != "\\u") {
        fail("unpaired high surrogate");
      }
      pos_ += 2;
      const std::uint32_t low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    return code;
  }

  static void append_utf8(std::string& out, std::uint32_t code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  JsonValue parse_number() {
    const std::size_t begin = pos_;
    if (!eof() && text_[pos_] == '-') ++pos_;
    const std::size_t digits_begin = pos_;
    while (!eof() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (pos_ == digits_begin) fail("invalid number");
    // Leading zeros are not JSON ("0" alone is fine, "01" is not).
    if (text_[digits_begin] == '0' && pos_ - digits_begin > 1) {
      fail("number with leading zero");
    }
    if (!eof() && text_[pos_] == '.') {
      ++pos_;
      const std::size_t frac_begin = pos_;
      while (!eof() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      if (pos_ == frac_begin) fail("missing digits after decimal point");
    }
    if (!eof() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!eof() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      const std::size_t exp_begin = pos_;
      while (!eof() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      if (pos_ == exp_begin) fail("missing digits in exponent");
    }
    const std::string_view token = text_.substr(begin, pos_ - begin);
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const auto result = std::from_chars(token.data(),
                                        token.data() + token.size(), v.number);
    if (result.ec != std::errc{} ||
        result.ptr != token.data() + token.size()) {
      fail("unparsable number '" + std::string(token) + "'");
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

inline util::JsonValue parse(std::string_view text) {
  Parser parser(text);
  return parser.parse_document();
}

inline obs::ValidationResult fail(std::size_t index, const std::string& what) {
  obs::ValidationResult result;
  result.ok = false;
  result.error = "traceEvents[" + std::to_string(index) + "]: " + what;
  return result;
}

inline bool is_index(double value) {
  constexpr double kTwoTo53 = 9007199254740992.0;
  double whole = 0.0;
  return value >= 0.0 && value < kTwoTo53 && std::modf(value, &whole) == 0.0;
}

inline std::string bad_index(const char* key) {
  return std::string("args \"") + key +
         "\" is not a whole number in [0, 2^53)";
}

inline obs::ValidationResult validate_chrome_trace(
    const util::JsonValue& document) {
  obs::ValidationResult result;
  if (!document.is_object()) {
    result.ok = false;
    result.error = "document root is not an object";
    return result;
  }
  const util::JsonValue* events = document.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    result.ok = false;
    result.error = "missing \"traceEvents\" array";
    return result;
  }

  // Open B/E nesting depth per (pid, tid) track, insertion-ordered.
  std::vector<std::pair<std::pair<double, double>, std::size_t>> depth;
  const auto track_depth = [&depth](double pid,
                                    double tid) -> std::size_t& {
    for (auto& [key, open] : depth) {
      if (key.first == pid && key.second == tid) return open;
    }
    depth.push_back({{pid, tid}, 0});
    return depth.back().second;
  };

  double last_ts = 0.0;
  bool saw_timed = false;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const util::JsonValue& event = events->array[i];
    if (!event.is_object()) return fail(i, "not an object");

    const util::JsonValue* name = event.find("name");
    if (name == nullptr || !name->is_string()) {
      return fail(i, "missing string \"name\"");
    }
    const util::JsonValue* ph = event.find("ph");
    if (ph == nullptr || !ph->is_string() || ph->string.size() != 1) {
      return fail(i, "missing one-character \"ph\"");
    }
    const char phase = ph->string[0];
    if (phase != 'M' && phase != 'X' && phase != 'B' && phase != 'E' &&
        phase != 'i' && phase != 'C' && phase != 's' && phase != 't' &&
        phase != 'f') {
      return fail(i, std::string("unsupported phase '") + phase + "'");
    }
    const util::JsonValue* pid = event.find("pid");
    const util::JsonValue* tid = event.find("tid");
    if (pid == nullptr || !pid->is_number()) {
      return fail(i, "missing numeric \"pid\"");
    }
    if (tid == nullptr || !tid->is_number()) {
      return fail(i, "missing numeric \"tid\"");
    }
    const util::JsonValue* args = event.find("args");
    if (args != nullptr && args->is_object()) {
      for (const char* key : {"job", "worker", "tenant"}) {
        const util::JsonValue* index = args->find(key);
        if (index != nullptr && index->is_number() &&
            !is_index(index->number)) {
          return fail(i, bad_index(key));
        }
      }
    }
    ++result.events;
    if (phase == 'M') continue;  // metadata carries no timeline position

    const util::JsonValue* ts = event.find("ts");
    if (ts == nullptr || !ts->is_number()) {
      return fail(i, "missing numeric \"ts\"");
    }
    if (saw_timed && ts->number < last_ts) {
      return fail(i, "timestamp " + util::json_number(ts->number) +
                         " decreases below " + util::json_number(last_ts));
    }
    last_ts = ts->number;
    saw_timed = true;

    if (phase == 'X') {
      const util::JsonValue* dur = event.find("dur");
      if (dur == nullptr || !dur->is_number() || dur->number < 0.0) {
        return fail(i, "\"X\" event without non-negative \"dur\"");
      }
    } else if (phase == 'B') {
      ++track_depth(pid->number, tid->number);
    } else if (phase == 'E') {
      std::size_t& open = track_depth(pid->number, tid->number);
      if (open == 0) return fail(i, "\"E\" without matching \"B\" on track");
      --open;
    }
  }
  for (const auto& [key, open] : depth) {
    if (open != 0) {
      result.ok = false;
      result.error = "track pid=" + util::json_number(key.first) +
                     " tid=" + util::json_number(key.second) + " has " +
                     std::to_string(open) + " unclosed \"B\" event(s)";
      return result;
    }
  }
  return result;
}

inline obs::ValidationResult validate_chrome_trace_text(
    std::string_view text) {
  try {
    return validate_chrome_trace(parse(text));
  } catch (const util::PreconditionError& error) {
    obs::ValidationResult result;
    result.ok = false;
    result.error = util::message_of(error);
    return result;
  }
}

inline std::vector<obs::TraceEvent> events_from_chrome_trace(
    const util::JsonValue& document) {
  NLDL_REQUIRE(document.is_object(), "trace document root is not an object");
  const util::JsonValue* entries = document.find("traceEvents");
  NLDL_REQUIRE(entries != nullptr && entries->is_array(),
               "trace document has no \"traceEvents\" array");

  constexpr double kSecondsPerMicro = 1e-6;
  constexpr double kPathPid = 4.0;
  const auto number_or = [](const util::JsonValue* node, double fallback) {
    return node != nullptr && node->is_number() ? node->number : fallback;
  };
  const auto index_arg = [](const util::JsonValue& args, const char* key) {
    const util::JsonValue* node = args.find(key);
    if (node == nullptr || !node->is_number()) return obs::kNoIndex;
    NLDL_REQUIRE(is_index(node->number), "trace event " + bad_index(key));
    return static_cast<std::size_t>(node->number);
  };

  std::vector<obs::TraceEvent> out;
  // Open kJob B events per jobs-track tid, in first-open order.
  std::vector<std::pair<double, obs::TraceEvent>> open_jobs;
  for (const util::JsonValue& entry : entries->array) {
    NLDL_REQUIRE(entry.is_object(), "trace event is not an object");
    const util::JsonValue* ph = entry.find("ph");
    NLDL_REQUIRE(ph != nullptr && ph->is_string() && ph->string.size() == 1,
                 "trace event without a one-character \"ph\"");
    const char phase = ph->string[0];
    if (phase == 'M' || phase == 's' || phase == 't' || phase == 'f') {
      continue;
    }
    if (number_or(entry.find("pid"), 0.0) == kPathPid) continue;

    const util::JsonValue* name = entry.find("name");
    NLDL_REQUIRE(name != nullptr && name->is_string(),
                 "trace event without a string \"name\"");
    obs::EventKind kind = obs::EventKind::kTransfer;
    NLDL_REQUIRE(obs::event_kind_from_string(name->string, kind),
                 "trace event with unknown name '" + name->string + "'");

    obs::TraceEvent event;
    event.kind = kind;
    event.start = number_or(entry.find("ts"), 0.0) * kSecondsPerMicro;
    event.end = event.start;
    if (phase == 'X') {
      event.end =
          event.start + number_or(entry.find("dur"), 0.0) * kSecondsPerMicro;
    }
    const util::JsonValue* args = entry.find("args");
    if (args != nullptr && args->is_object()) {
      event.worker = index_arg(*args, "worker");
      event.job = index_arg(*args, "job");
      event.tenant = index_arg(*args, "tenant");
      event.size = number_or(args->find("size"), 0.0);
      event.alpha = number_or(args->find("alpha"), 0.0);
      event.value = number_or(args->find("value"), 0.0);
    }

    if (phase == 'B') {
      NLDL_REQUIRE(kind == obs::EventKind::kJob, "non-job \"B\" event");
      open_jobs.emplace_back(number_or(entry.find("tid"), 0.0), event);
    } else if (phase == 'E') {
      const double tid = number_or(entry.find("tid"), 0.0);
      bool matched = false;
      for (std::size_t i = open_jobs.size(); i-- > 0;) {
        if (open_jobs[i].first == tid) {
          obs::TraceEvent job = open_jobs[i].second;
          job.end = event.start;
          out.push_back(job);
          open_jobs.erase(open_jobs.begin() +
                          static_cast<std::ptrdiff_t>(i));
          matched = true;
          break;
        }
      }
      NLDL_REQUIRE(matched, "\"E\" event without a matching \"B\"");
    } else {
      out.push_back(event);
    }
  }
  NLDL_REQUIRE(open_jobs.empty(), "unclosed \"B\" event in trace");
  return out;
}

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

inline bool same_tree(const util::JsonValue& a, const util::JsonValue& b) {
  if (a.kind != b.kind || a.boolean != b.boolean ||
      !same_bits(a.number, b.number) || a.string != b.string ||
      a.array.size() != b.array.size() || a.object.size() != b.object.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.array.size(); ++i) {
    if (!same_tree(a.array[i], b.array[i])) return false;
  }
  for (std::size_t i = 0; i < a.object.size(); ++i) {
    if (a.object[i].first != b.object[i].first ||
        !same_tree(a.object[i].second, b.object[i].second)) {
      return false;
    }
  }
  return true;
}

inline bool same_events(const std::vector<obs::TraceEvent>& a,
                        const std::vector<obs::TraceEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const obs::TraceEvent& x = a[i];
    const obs::TraceEvent& y = b[i];
    if (x.kind != y.kind || !same_bits(x.start, y.start) ||
        !same_bits(x.end, y.end) || x.worker != y.worker || x.job != y.job ||
        x.tenant != y.tenant || !same_bits(x.size, y.size) ||
        !same_bits(x.alpha, y.alpha) || !same_bits(x.value, y.value)) {
      return false;
    }
  }
  return true;
}

/// Decoded events, or the message of the error that stopped the decode.
struct Decoded {
  std::vector<obs::TraceEvent> events;
  std::optional<std::string> error;
};

template <class Decode>
Decoded decode_with(const Decode& decode) {
  Decoded out;
  try {
    out.events = decode();
  } catch (const util::PreconditionError& error) {
    out.error = util::message_of(error);
  }
  return out;
}

inline void expect_same_decode(const Decoded& actual, const Decoded& expected) {
  EXPECT_EQ(actual.error, expected.error);
  EXPECT_TRUE(same_events(actual.events, expected.events))
      << actual.events.size() << " events decoded, " << expected.events.size()
      << " expected";
}

/// The stream readers against the tree on one document.
inline void expect_matches_tree(const std::string& text) {
  // parse_json: the same tree, or the same parse error.
  std::optional<util::JsonValue> tree;
  std::string parse_error;
  try {
    tree = parse(text);
  } catch (const util::PreconditionError& error) {
    parse_error = util::message_of(error);
  }
  try {
    const util::JsonValue streamed = util::parse_json(text);
    ASSERT_TRUE(tree.has_value()) << "accepted; the tree says " << parse_error;
    EXPECT_TRUE(same_tree(streamed, *tree));
  } catch (const util::PreconditionError& error) {
    EXPECT_FALSE(tree.has_value()) << error.what();
    EXPECT_EQ(util::message_of(error), parse_error);
  }

  // Validation: the same ok flag, event count and error text.
  const obs::ValidationResult expected = validate_chrome_trace_text(text);
  const obs::ValidationResult actual = obs::validate_chrome_trace_text(text);
  EXPECT_EQ(actual.ok, expected.ok) << actual.error;
  EXPECT_EQ(actual.events, expected.events);
  EXPECT_EQ(actual.error, expected.error);

  // Decoding: the same events bit for bit, or the same error.
  const Decoded decoded = decode_with([&] {
    if (!tree) throw util::PreconditionError(parse_error);
    return events_from_chrome_trace(*tree);
  });
  expect_same_decode(
      decode_with([&] { return obs::events_from_chrome_trace(text); }),
      decoded);

  // Both in one pass: validate_chrome_trace_text's exact verdict, then
  // the decode of a valid document only.
  obs::ValidationResult both;
  const Decoded combined = decode_with(
      [&] { return obs::events_from_chrome_trace(text, &both); });
  EXPECT_EQ(both.ok, actual.ok);
  EXPECT_EQ(both.events, actual.events);
  EXPECT_EQ(both.error, actual.error);
  if (expected.ok) {
    expect_same_decode(combined, decoded);
  } else {
    EXPECT_FALSE(combined.error.has_value()) << *combined.error;
    EXPECT_TRUE(combined.events.empty());
  }
}

}  // namespace nldl::oracle
