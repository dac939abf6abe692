#include "util/json_parse.hpp"

#include <charconv>
#include <cstdint>

#include "util/assert.hpp"

namespace nldl::util {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

// Hand-rolled cursor; errors report the byte offset they fired at.
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

}  // namespace

JsonValue parse_json(std::string_view text) {
  Parser parser(text);
  return parser.parse_document();
}

}  // namespace nldl::util
