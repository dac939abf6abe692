// Tests for util/json_parse.hpp — the read side of the JSON stack. The
// pull reader backs trace validation and decoding, the tree built over
// it bench-payload diffing, so the pins here are about strictness
// (malformed input throws), token order, order preservation, and exact
// structural equality. tests/test_trace_import.cpp checks both against
// the recursive-descent parser they replaced.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/assert.hpp"
#include "util/json_parse.hpp"

namespace nldl {
namespace {

using util::JsonValue;
using util::parse_json;

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").boolean);
  EXPECT_FALSE(parse_json("false").boolean);
  EXPECT_EQ(parse_json("42").number, 42.0);
  EXPECT_EQ(parse_json("-1.5e3").number, -1500.0);
  EXPECT_EQ(parse_json("0.0078125").number, 0.0078125);  // exact binary
  EXPECT_EQ(parse_json("\"hi\"").string, "hi");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\/d")").string, "a\"b\\c/d");
  EXPECT_EQ(parse_json(R"("line\nfeed\ttab")").string, "line\nfeed\ttab");
  EXPECT_EQ(parse_json(R"("Aé")").string, "A\xc3\xa9");
}

TEST(JsonParse, ArraysAndObjectsPreserveOrder) {
  const JsonValue doc = parse_json(
      R"({"z": [1, 2, 3], "a": {"nested": true}, "z": "dup"})");
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.object.size(), 3u);  // duplicate keys are both kept
  EXPECT_EQ(doc.object[0].first, "z");
  EXPECT_EQ(doc.object[1].first, "a");
  EXPECT_EQ(doc.object[2].first, "z");

  const JsonValue* z = doc.find("z");
  ASSERT_NE(z, nullptr);  // find returns the FIRST member
  ASSERT_TRUE(z->is_array());
  ASSERT_EQ(z->array.size(), 3u);
  EXPECT_EQ(z->array[2].number, 3.0);

  const JsonValue* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  const JsonValue* nested = a->find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_TRUE(nested->boolean);

  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(z->find("z"), nullptr);  // non-objects have no members
}

TEST(JsonParse, MalformedInputThrows) {
  EXPECT_THROW((void)parse_json(""), util::PreconditionError);
  EXPECT_THROW((void)parse_json("{"), util::PreconditionError);
  EXPECT_THROW((void)parse_json("[1,]"), util::PreconditionError);
  EXPECT_THROW((void)parse_json("{\"a\" 1}"), util::PreconditionError);
  EXPECT_THROW((void)parse_json("'single'"), util::PreconditionError);
  EXPECT_THROW((void)parse_json("nul"), util::PreconditionError);
  EXPECT_THROW((void)parse_json("1 2"), util::PreconditionError);  // garbage
  EXPECT_THROW((void)parse_json("\"unterminated"), util::PreconditionError);
  EXPECT_THROW((void)parse_json("\"bad \\q escape\""),
               util::PreconditionError);
}

TEST(JsonParse, NestingDepthIsBounded) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_THROW((void)parse_json(deep), util::PreconditionError);

  std::string ok;
  for (int i = 0; i < 64; ++i) ok += '[';
  for (int i = 0; i < 64; ++i) ok += ']';
  EXPECT_TRUE(parse_json(ok).is_array());
}

TEST(JsonReader, YieldsTokensInDocumentOrder) {
  using Token = util::JsonReader::Token;
  util::JsonReader reader(R"( {"a": [1.5, "x", true, false, null], "b": {}} )");
  const std::vector<Token> expected = {
      Token::kBeginObject, Token::kKey,       Token::kBeginArray,
      Token::kNumber,      Token::kString,    Token::kTrue,
      Token::kFalse,       Token::kNull,      Token::kEndArray,
      Token::kKey,         Token::kBeginObject, Token::kEndObject,
      Token::kEndObject,   Token::kEnd};
  for (const Token token : expected) {
    EXPECT_EQ(reader.next(), token);
    if (token == Token::kNumber) {
      EXPECT_EQ(reader.number(), 1.5);
    }
    if (token == Token::kKey || token == Token::kString) {
      EXPECT_EQ(reader.string().size(), 1u);
    }
  }
  EXPECT_EQ(reader.next(), Token::kEnd);  // and again
}

TEST(JsonReader, StringsViewTheTextUnlessEscaped) {
  using Token = util::JsonReader::Token;
  const std::string text = R"(["plain", "tab\tand \u00e9"])";
  util::JsonReader reader(text);
  ASSERT_EQ(reader.next(), Token::kBeginArray);
  ASSERT_EQ(reader.next(), Token::kString);
  EXPECT_EQ(reader.string(), "plain");
  EXPECT_EQ(reader.string().data(), text.data() + 2);  // no copy
  ASSERT_EQ(reader.next(), Token::kString);
  EXPECT_EQ(reader.string(), "tab\tand \xc3\xa9");
  EXPECT_FALSE(reader.string().data() >= text.data() &&
               reader.string().data() < text.data() + text.size());
}

TEST(JsonReader, SkipChecksTheSyntaxOfWhatItSkips) {
  using Token = util::JsonReader::Token;
  util::JsonReader reader(R"({"skip": [1, {"a": [true]}], "keep": 2})");
  ASSERT_EQ(reader.next(), Token::kBeginObject);
  ASSERT_EQ(reader.next(), Token::kKey);
  reader.skip(reader.next());
  ASSERT_EQ(reader.next(), Token::kKey);
  EXPECT_EQ(reader.string(), "keep");
  ASSERT_EQ(reader.next(), Token::kNumber);
  EXPECT_EQ(reader.number(), 2.0);

  util::JsonReader bad(R"([[1, 01]])");
  ASSERT_EQ(bad.next(), Token::kBeginArray);
  try {
    bad.skip(bad.next());
    ADD_FAILURE() << "skipped a malformed number";
  } catch (const util::PreconditionError& error) {
    EXPECT_STREQ(error.what(),
                 "json parse error at byte 7: number with leading zero");
  }
}

}  // namespace
}  // namespace nldl
