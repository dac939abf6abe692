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

constexpr std::size_t kMaxDepth = 192;

void append_utf8(std::string& out, std::uint32_t code) {
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

}  // namespace

// Errors report the byte offset they fired at.
void JsonReader::fail(const std::string& what) const {
  throw PreconditionError("json parse error at byte " + std::to_string(pos_) +
                          ": " + what);
}

char JsonReader::peek() const {
  if (eof()) fail("unexpected end of input");
  return text_[pos_];
}

char JsonReader::take() {
  const char c = peek();
  ++pos_;
  return c;
}

void JsonReader::skip_whitespace() noexcept {
  while (!eof()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

void JsonReader::expect(char c) {
  if (peek() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

void JsonReader::expect_literal(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) {
    fail("invalid literal (expected " + std::string(literal) + ")");
  }
  pos_ += literal.size();
}

JsonReader::Token JsonReader::next() {
  switch (expect_) {
    case Expect::kValue:
      return value();
    case Expect::kFirstElement:
      skip_whitespace();
      if (peek() == ']') {
        ++pos_;
        return close();
      }
      return value();
    case Expect::kFirstKey:
      skip_whitespace();
      if (peek() == '}') {
        ++pos_;
        return close();
      }
      return key();
    case Expect::kSeparator: {
      skip_whitespace();
      const char bracket = open_.back();
      const char c = take();
      if (c == bracket) return close();
      if (c != ',') {
        fail(bracket == '}' ? "expected ',' or '}' in object"
                            : "expected ',' or ']' in array");
      }
      if (bracket == ']') return value();
      skip_whitespace();
      return key();
    }
    case Expect::kEnd:
      skip_whitespace();
      NLDL_REQUIRE(pos_ == text_.size(),
                   "trailing characters after JSON document at byte " +
                       std::to_string(pos_));
      return Token::kEnd;
  }
  NLDL_UNREACHABLE("JsonReader in an unknown state");
}

void JsonReader::skip(Token first) {
  if (first != Token::kBeginObject && first != Token::kBeginArray) return;
  const std::size_t open = open_.size();
  while (open_.size() >= open) (void)next();
}

// A value at the current offset: the depth check fires before the
// whitespace in front of the value is skipped.
JsonReader::Token JsonReader::value() {
  if (open_.size() > kMaxDepth) fail("nesting deeper than 192 levels");
  skip_whitespace();
  switch (peek()) {
    case '{':
      ++pos_;
      open_.push_back('}');
      expect_ = Expect::kFirstKey;
      return Token::kBeginObject;
    case '[':
      ++pos_;
      open_.push_back(']');
      expect_ = Expect::kFirstElement;
      return Token::kBeginArray;
    case '"':
      read_string();
      after_value();
      return Token::kString;
    case 't':
      expect_literal("true");
      after_value();
      return Token::kTrue;
    case 'f':
      expect_literal("false");
      after_value();
      return Token::kFalse;
    case 'n':
      expect_literal("null");
      after_value();
      return Token::kNull;
    default:
      read_number();
      after_value();
      return Token::kNumber;
  }
}

// A member's key and the ':' after it; the value comes next.
JsonReader::Token JsonReader::key() {
  read_string();
  skip_whitespace();
  expect(':');
  expect_ = Expect::kValue;
  return Token::kKey;
}

JsonReader::Token JsonReader::close() {
  const char bracket = open_.back();
  open_.pop_back();
  after_value();
  return bracket == '}' ? Token::kEndObject : Token::kEndArray;
}

void JsonReader::after_value() noexcept {
  expect_ = open_.empty() ? Expect::kEnd : Expect::kSeparator;
}

// An unescaped string is a view into the text; the first backslash hands
// over to read_escaped, which decodes into buffer_.
void JsonReader::read_string() {
  expect('"');
  const std::size_t begin = pos_;
  while (!eof()) {
    const char c = text_[pos_];
    if (c == '"') {
      string_ = text_.substr(begin, pos_ - begin);
      ++pos_;
      return;
    }
    if (c == '\\') {
      read_escaped(begin);
      return;
    }
    ++pos_;
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("unescaped control character in string");
    }
  }
  fail("unexpected end of input");
}

void JsonReader::read_escaped(std::size_t begin) {
  buffer_.assign(text_.substr(begin, pos_ - begin));
  while (true) {
    const char c = take();
    if (c == '"') break;
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("unescaped control character in string");
    }
    if (c != '\\') {
      buffer_.push_back(c);
      continue;
    }
    const char esc = take();
    switch (esc) {
      case '"':
        buffer_.push_back('"');
        break;
      case '\\':
        buffer_.push_back('\\');
        break;
      case '/':
        buffer_.push_back('/');
        break;
      case 'b':
        buffer_.push_back('\b');
        break;
      case 'f':
        buffer_.push_back('\f');
        break;
      case 'n':
        buffer_.push_back('\n');
        break;
      case 'r':
        buffer_.push_back('\r');
        break;
      case 't':
        buffer_.push_back('\t');
        break;
      case 'u':
        append_utf8(buffer_, read_codepoint());
        break;
      default:
        fail("invalid escape sequence");
    }
  }
  string_ = buffer_;
}

std::uint32_t JsonReader::read_hex4() {
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

std::uint32_t JsonReader::read_codepoint() {
  std::uint32_t code = read_hex4();
  if (code >= 0xD800 && code <= 0xDBFF) {
    // High surrogate: must be followed by \uDC00..\uDFFF.
    if (eof() || text_.substr(pos_, 2) != "\\u") {
      fail("unpaired high surrogate");
    }
    pos_ += 2;
    const std::uint32_t low = read_hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  } else if (code >= 0xDC00 && code <= 0xDFFF) {
    fail("unpaired low surrogate");
  }
  return code;
}

void JsonReader::read_number() {
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
  const auto result =
      std::from_chars(token.data(), token.data() + token.size(), number_);
  if (result.ec != std::errc{} ||
      result.ptr != token.data() + token.size()) {
    fail("unparsable number '" + std::string(token) + "'");
  }
}

namespace {

// The tree below one value whose first token is `token`.
JsonValue build(JsonReader& reader, JsonReader::Token token) {
  using Token = JsonReader::Token;
  JsonValue v;
  switch (token) {
    case Token::kBeginObject:
      v.kind = JsonValue::Kind::kObject;
      while (reader.next() != Token::kEndObject) {
        std::string key(reader.string());
        v.object.emplace_back(std::move(key), build(reader, reader.next()));
      }
      return v;
    case Token::kBeginArray:
      v.kind = JsonValue::Kind::kArray;
      for (Token t = reader.next(); t != Token::kEndArray; t = reader.next()) {
        v.array.push_back(build(reader, t));
      }
      return v;
    case Token::kString:
      v.kind = JsonValue::Kind::kString;
      v.string = reader.string();
      return v;
    case Token::kNumber:
      v.kind = JsonValue::Kind::kNumber;
      v.number = reader.number();
      return v;
    case Token::kTrue:
    case Token::kFalse:
      v.kind = JsonValue::Kind::kBool;
      v.boolean = token == Token::kTrue;
      return v;
    case Token::kNull:
      return v;
    case Token::kEndObject:
    case Token::kEndArray:
    case Token::kKey:
    case Token::kEnd:
      break;
  }
  NLDL_UNREACHABLE("a value cannot start with this token");
}

}  // namespace

JsonValue parse_json(std::string_view text) {
  JsonReader reader(text);
  JsonValue root = build(reader, reader.next());
  (void)reader.next();  // kEnd, or the trailing-characters error
  return root;
}

}  // namespace nldl::util
