// Tests for the streaming JSON writer used by the bench harness.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <clocale>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "util/assert.hpp"

namespace nldl::util {
namespace {

TEST(JsonNumber, RoundTripsAndTrims) {
  EXPECT_EQ(json_number(1.0), "1");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(-3.25), "-3.25");
  // Round-trip: parsing the emitted text recovers the exact double.
  const double awkward = 0.1 + 0.2;
  EXPECT_EQ(std::stod(json_number(awkward)), awkward);  // nldl-lint: allow(locale): round-trip oracle under the default C locale of the test runner
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");
}

TEST(JsonNumber, RoundTripsViaFromChars) {
  for (const double value :
       {0.1, 1.0 / 3.0, -2.5e-300, 1.7976931348623157e308,
        5e-324 /* min subnormal */, 0.0, -0.0}) {
    const std::string text = json_number(value);
    double parsed = 0.0;
    const auto result =
        std::from_chars(text.data(), text.data() + text.size(), parsed);
    ASSERT_EQ(result.ec, std::errc{}) << text;
    EXPECT_EQ(parsed, value) << text;
  }
}

// Regression: json_number used to format through %g/%lf, which honor the
// C locale — under a comma-decimal locale (de_DE, fr_FR, ...) the emitted
// file contained "3,25", which is invalid JSON. std::to_chars is
// locale-independent by specification.
TEST(JsonNumber, IgnoresCommaDecimalLocale) {
  const char* previous = std::setlocale(LC_ALL, nullptr);  // nldl-lint: allow(locale): this IS the locale regression test — forces a comma locale to prove json_number ignores it
  const std::string saved = previous ? previous : "C";
  const char* comma_locale = nullptr;
  for (const char* candidate :
       {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR"}) {
    if (std::setlocale(LC_ALL, candidate) != nullptr) {  // nldl-lint: allow(locale): this IS the locale regression test — forces a comma locale to prove json_number ignores it
      comma_locale = candidate;
      break;
    }
  }
  if (comma_locale == nullptr) {
    GTEST_SKIP() << "no comma-decimal locale available on this system";
  }
  const std::string text = json_number(3.25);
  std::setlocale(LC_ALL, saved.c_str());  // nldl-lint: allow(locale): this IS the locale regression test — forces a comma locale to prove json_number ignores it
  EXPECT_EQ(text, "3.25");
  EXPECT_EQ(text.find(','), std::string::npos);
}

TEST(JsonQuote, EscapesSpecials) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(json_quote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonWriter, WritesNestedDocument) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.key("name").value("fig4a");
  json.key("trials").value(100);
  json.key("fast").value(true);
  json.key("points").begin_array();
  json.begin_object();
  json.key("p").value(std::size_t{10});
  json.key("mean").value(1.25);
  json.end_object();
  json.end_array();
  json.end_object();
  EXPECT_TRUE(json.complete());

  const std::string text = out.str();
  EXPECT_NE(text.find("\"name\": \"fig4a\""), std::string::npos);
  EXPECT_NE(text.find("\"trials\": 100"), std::string::npos);
  EXPECT_NE(text.find("\"fast\": true"), std::string::npos);
  EXPECT_NE(text.find("\"mean\": 1.25"), std::string::npos);
  // Balanced braces/brackets.
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
}

TEST(JsonWriter, ArraysSeparateElements) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_array();
  json.value(1).value(2).value(3);
  json.end_array();
  std::string text = out.str();
  // Exactly two commas for three elements.
  EXPECT_EQ(std::count(text.begin(), text.end(), ','), 2);
}

// One document touching every formatting rule the writer has: nesting
// three deep, empty scopes, escapes in keys and values, signed zero,
// non-finite doubles, the integer extremes, booleans and a C string.
void write_pinned_document(JsonWriter& json) {
  const double inf = std::numeric_limits<double>::infinity();
  const char* literal = "c-string";
  json.begin_object();
  json.key("outer").begin_object();
  json.key("middle").begin_array();
  json.begin_object();
  json.key("inner").value(1);
  json.end_object();
  json.end_array();
  json.end_object();
  json.key("empty_object").begin_object();
  json.end_object();
  json.key("empty_array").begin_array();
  json.end_array();
  json.key("needs \"escaping\"\n")
      .value(std::string("q\" b\\ n\n r\r t\t \x01 \x1f"));
  json.key("numbers").begin_array();
  json.value(-0.0).value(0.1 + 0.2).value(std::nan("")).value(inf).value(
      -inf);
  json.value(std::numeric_limits<std::int64_t>::min());
  json.value(std::numeric_limits<std::size_t>::max());
  json.end_array();
  json.key("yes").value(true);
  json.key("no").value(false);
  json.key("literal").value(literal);
  json.end_object();
}

// The exact bytes write_pinned_document produces, newline after the root
// included. Every BENCH_*.json payload and trace export goes through this
// formatting, so any change to it shows up here first.
constexpr const char* kPinnedDocument = R"({
  "outer": {
    "middle": [
      {
        "inner": 1
      }
    ]
  },
  "empty_object": {},
  "empty_array": [],
  "needs \"escaping\"\n": "q\" b\\ n\n r\r t\t \u0001 \u001f",
  "numbers": [
    -0,
    0.30000000000000004,
    null,
    null,
    null,
    -9223372036854775808,
    18446744073709551615
  ],
  "yes": true,
  "no": false,
  "literal": "c-string"
}
)";

TEST(JsonWriter, PinnedDocumentBytes) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    write_pinned_document(json);
    EXPECT_TRUE(json.complete());
  }
  EXPECT_EQ(out.str(), kPinnedDocument);
}

// bench::points_text reads the stream while its writer is still in scope:
// the whole document must be there as soon as the root closes.
TEST(JsonWriter, DocumentReachesTheStreamWhenTheRootCloses) {
  std::ostringstream out;
  JsonWriter json(out);
  write_pinned_document(json);
  EXPECT_EQ(out.str(), kPinnedDocument);
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream out;
  JsonWriter json(out);
  EXPECT_THROW(json.end_object(), util::InvariantError);
  json.begin_object();
  EXPECT_THROW(json.value(1.0), util::InvariantError);  // key required
  json.key("k");
  EXPECT_THROW(json.key("k2"), util::InvariantError);  // two keys in a row
}

}  // namespace
}  // namespace nldl::util
