// The one-pass trace readers (obs/validate.hpp) and util::parse_json
// against the document-tree oracle in trace_tree_oracle.hpp, on every
// committed trace and bench-diff fixture and on generated mutations of a
// small trace: truncations, deleted bytes, swapped B/E, duplicated and
// reordered keys, escaped keys and strings, bad index args, malformed
// numbers and escapes, nesting at the depth limit and trailing garbage.
#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.hpp"
#include "obs/validate.hpp"
#include "trace_tree_oracle.hpp"
#include "util/assert.hpp"

namespace nldl {
namespace {

// Every member the readers look at and every phase they treat apart: a
// metadata event, instants, a job B/E pair, X spans with index args, and
// the pid-4 critical-path overlay with its flow arrows.
const std::string kSmallTrace = R"json({"displayTimeUnit": "ms", "traceEvents": [
  {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
   "args": {"name": "workers"}},
  {"name": "arrival", "cat": "nldl", "ph": "i", "ts": 0, "s": "t",
   "pid": 2, "tid": 0, "args": {"job": 0, "tenant": 1, "value": 0}},
  {"name": "job", "cat": "nldl", "ph": "B", "ts": 500000,
   "pid": 2, "tid": 0, "args": {"job": 0, "tenant": 1, "size": 2}},
  {"name": "transfer", "cat": "nldl", "ph": "X", "ts": 500000, "dur": 1000000,
   "pid": 1, "tid": 0, "args": {"job": 0, "tenant": 1, "worker": 0, "size": 2}},
  {"name": "compute", "cat": "nldl", "ph": "X", "ts": 1500000, "dur": 1500000,
   "pid": 1, "tid": 0, "args": {"job": 0, "worker": 0, "size": 2, "alpha": 2}},
  {"name": "comm", "ph": "X", "ts": 1500000, "dur": 1500000,
   "pid": 4, "tid": 0, "args": {"job": 0}},
  {"name": "path", "ph": "s", "id": 0, "ts": 1500000, "pid": 4, "tid": 0},
  {"name": "path", "ph": "f", "bp": "e", "id": 0, "ts": 3000000,
   "pid": 4, "tid": 0},
  {"name": "job", "cat": "nldl", "ph": "E", "ts": 3000000,
   "pid": 2, "tid": 0, "args": {"job": 0, "tenant": 1, "size": 2}},
  {"name": "deadline_miss", "cat": "nldl", "ph": "i", "ts": 3500000, "s": "t",
   "pid": 2, "tid": 0, "args": {"job": 0, "value": 0.125}}
]}
)json";

/// `text` with the occurrence-th match of `from` (every match when
/// occurrence is npos) replaced by `to`.
std::string replace(std::string text, const std::string& from,
                    const std::string& to,
                    std::size_t occurrence = std::string::npos) {
  std::size_t seen = 0;
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at)) {
    if (occurrence == std::string::npos || seen++ == occurrence) {
      text.replace(at, from.size(), to);
      at += to.size();
      if (occurrence != std::string::npos) break;
    } else {
      at += from.size();
    }
  }
  return text;
}

/// Each occurrence of `from` replaced by `to` on its own, then all of
/// them at once.
std::vector<std::string> substitutions(const std::string& from,
                                       const std::string& to) {
  std::vector<std::string> out;
  std::size_t count = 0;
  for (std::size_t at = kSmallTrace.find(from); at != std::string::npos;
       at = kSmallTrace.find(from, at + from.size())) {
    ++count;
  }
  EXPECT_GT(count, 0u) << from << " is not in the small trace";
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(replace(kSmallTrace, from, to, k));
  }
  out.push_back(replace(kSmallTrace, from, to));
  return out;
}

void expect_matches_tree_on(const std::vector<std::string>& texts) {
  for (const std::string& text : texts) {
    SCOPED_TRACE(text);
    oracle::expect_matches_tree(text);
  }
}

TEST(TraceImport, SmallTraceValidatesAndDecodes) {
  const obs::ValidationResult result = obs::validate_chrome_trace_text(
      kSmallTrace);
  ASSERT_TRUE(result) << result.error;
  EXPECT_EQ(result.events, 10u);
  const std::vector<obs::TraceEvent> events =
      obs::events_from_chrome_trace(kSmallTrace);
  // Metadata, flows and the pid-4 overlay are skipped; B/E is one job.
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[3].kind, obs::EventKind::kJob);
  EXPECT_DOUBLE_EQ(events[3].end, 3.0);
  EXPECT_EQ(events[2].alpha, 2.0);
  oracle::expect_matches_tree(kSmallTrace);
}

TEST(TraceImport, MatchesTheTreeOnEveryFixture) {
  std::vector<std::filesystem::path> files;
  for (const char* dir : {"trace_fixtures", "bench_diff_fixtures"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(NLDL_TEST_DIR) / dir)) {
      if (entry.path().extension() == ".json") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 10u);
  for (const std::filesystem::path& file : files) {
    SCOPED_TRACE(file.string());
    std::ifstream in(file, std::ios::binary);
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    oracle::expect_matches_tree(text);
  }
}

TEST(TraceImport, MatchesTheTreeOnEveryTruncationAndDeletedByte) {
  for (std::size_t size = 0; size < kSmallTrace.size(); ++size) {
    SCOPED_TRACE("first " + std::to_string(size) + " bytes");
    oracle::expect_matches_tree(kSmallTrace.substr(0, size));
  }
  for (std::size_t at = 0; at < kSmallTrace.size(); ++at) {
    SCOPED_TRACE("byte " + std::to_string(at) + " deleted");
    std::string text = kSmallTrace;
    text.erase(at, 1);
    oracle::expect_matches_tree(text);
  }
}

TEST(TraceImport, MatchesTheTreeOnSchemaMutations) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      // Swapped and unbalanced B/E, a non-job B.
      {R"("ph": "B")", R"("ph": "E")"},
      {R"("ph": "E")", R"("ph": "B")"},
      {R"("ph": "E")", R"("ph": "i")"},
      {R"("name": "job", "cat": "nldl", "ph": "B")",
       R"("name": "admit", "cat": "nldl", "ph": "B")"},
      // Names and phases.
      {R"("arrival")", R"("bogus")"},
      {R"("name": "compute")", R"("name": 7)"},
      {R"("name": "compute", )", ""},
      {R"("ph": "i")", R"("ph": "ii")"},
      {R"("ph": "i")", R"("ph": "Q")"},
      {R"("ph": "i")", R"("ph": 5)"},
      {R"("ph": "i")", R"("ph": "")"},
      // Ids, times and durations.
      {R"("tid": 0)", R"("tid": "0")"},
      {R"("pid": 1)", R"("pid": -0)"},
      {R"("pid": 2)", R"("pid": 2.5)"},
      {R"("ts": 3500000)", R"("ts": 1)"},
      {R"("ts": 0)", R"("ts": null)"},
      {R"("dur": 1000000)", R"("dur": -1)"},
      {R"(, "dur": 1000000)", ""},
      // Index args that are not whole numbers in [0, 2^53), or no number.
      {R"("job": 0)", R"("job": -1)"},
      {R"("job": 0)", R"("job": 2.5)"},
      {R"("job": 0)", R"("job": -0)"},
      {R"("job": 0)", R"("job": "0")"},
      {R"("job": 0)", R"("job": null)"},
      {R"("worker": 0)", R"("worker": 1e30)"},
      {R"("tenant": 1)", R"("tenant": 9007199254740992)"},
      {R"("tenant": 1)", R"("tenant": 9007199254740991)"},
      {R"("args": {"job": 0, "tenant": 1, "size": 2})", R"("args": [0, 1])"},
      {R"("args": {"job": 0, "value": 0.125})",
       R"("args": {"x": {"job": -1}})"},
      // Duplicated keys: the first occurrence counts.
      {R"("ph": "X")", R"("ph": "X", "ph": "B")"},
      {R"("ph": "X")", R"("ph": "B", "ph": "X")"},
      {R"("worker": 0)", R"("worker": 0, "worker": -1)"},
      {R"("worker": 0)", R"("worker": -1, "worker": 0)"},
      {R"("pid": 4)", R"("pid": 4, "pid": 1)"},
      {R"("ts": 3500000)", R"("ts": 3500000, "ts": 0)"},
      {R"("args": {)", R"("args": 3, "args": {)"},
      {R"("traceEvents")", R"("traceEvents": 5, "traceEvents")"},
      {R"("displayTimeUnit")", R"("traceEvents": [], "displayTimeUnit")"},
      {R"("traceEvents")", R"("traceEventz")"},
      // Reordered keys.
      {R"({"name": "compute", "cat": "nldl", "ph": "X", "ts": 1500000, )",
       R"({"ts": 1500000, "ph": "X", "cat": "nldl", "name": "compute", )"},
      // Escaped keys and strings compare unescaped.
      {R"("pid")", R"("p\u0069d")"},
      {R"("ph": "X")", R"("ph": "\u0058")"},
      {R"("transfer")", R"("tr\u0061nsfer")"},
      {R"("name")", R"("n\u0061me")"},
      {R"("traceEvents")", R"("trace\u0045vents")"},
      {R"("job": 0)", R"("j\u006fb": -1)"},
      {R"("ph": "i")", R"("ph": "\u0000")"},
      // Entries and roots of the wrong kind.
      {R"("traceEvents": [)", R"("traceEvents": [7, )"},
      {R"("traceEvents": [)", R"("traceEvents": [[], )"},
  };
  for (const auto& [from, to] : cases) {
    SCOPED_TRACE(from + " -> " + to);
    expect_matches_tree_on(substitutions(from, to));
  }
  expect_matches_tree_on({"[" + kSmallTrace + "]", "7", "{}", "\"trace\""});
}

TEST(TraceImport, MatchesTheTreeOnSyntaxMutations) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      // Numbers.
      {"500000", "01"},          {"500000", "1."},
      {"500000", "1e"},          {"500000", "-"},
      {"500000", "1e400"},       {"500000", "1e-400"},
      {"500000", "+1"},          {"500000", ".5"},
      {"500000", "5e+5"},        {"500000", "5.0E5"},
      {"500000", "-0.0"},        {"0.125", "0.125e"},
      // Escapes and surrogates.
      {R"("nldl")", R"("nl\qdl")"},
      {R"("nldl")", R"("\uD800")"},
      {R"("nldl")", R"("\uDC00")"},
      {R"("nldl")", R"("\uD800A")"},
      {R"("nldl")", R"("\uD800x")"},
      {R"("nldl")", R"("😀")"},
      {R"("nldl")", R"("é\n\t\/\\\"\b\f\r")"},
      {R"("nldl")", R"("\u12G4")"},
      {R"("nldl")", "\"nl\tdl\""},
      {R"("nldl")", "\"nl\x7f\xc3\xa9\""},
      // Literals, separators and brackets.
      {"\"s\": \"t\"", "\"s\": nul"},
      {"\"s\": \"t\"", "\"s\": null"},
      {"\"s\": \"t\"", "\"s\": true"},
      {"\"s\": \"t\"", "\"s\": fals"},
      {", \"cat\"", " \"cat\""}, {"\"tid\": 0}", "\"tid\": 0,}"},
      {"}}", "}]"},              {"]}", "}}"},
      {": ", " : "},             {": ", " "},
  };
  for (const auto& [from, to] : cases) {
    SCOPED_TRACE(from + " -> " + to);
    expect_matches_tree_on(substitutions(from, to));
  }
  // Trailing garbage, and trailing whitespace that is fine.
  expect_matches_tree_on({kSmallTrace + "x", kSmallTrace + "{}",
                          kSmallTrace + " ,", kSmallTrace + "\r\n\t "});
}

TEST(TraceImport, MatchesTheTreeAtTheNestingLimit) {
  std::vector<std::string> texts;
  for (std::size_t levels = 188; levels <= 196; ++levels) {
    const std::string open(levels, '[');
    const std::string close(levels, ']');
    texts.push_back(open + close);
    texts.push_back(open + "0" + close);
    texts.push_back(open + " \n" + close);
    std::string objects;
    for (std::size_t i = 0; i < levels; ++i) objects += "{\"a\": ";
    texts.push_back(objects + "1" + std::string(levels, '}'));
    // The same depths inside an event's args (root, traceEvents, the
    // event and args hold four levels).
    texts.push_back(replace(
        kSmallTrace, R"("args": {"job": 0, "value": 0.125})",
        R"("args": {"job": 0, "value": 0.125, "n": )" +
            std::string(levels - 4, '[') + std::string(levels - 4, ']') +
            "}"));
  }
  expect_matches_tree_on(texts);
}

TEST(TraceImport, ParseErrorAnywhereWinsOverAnEarlierSchemaError) {
  // Event 2's ts decreases, and the text is cut off much later: the
  // tree parsed the whole document before checking any event.
  const std::string whole =
      replace(kSmallTrace, R"("ts": 0)", R"("ts": 9000000)");
  EXPECT_EQ(obs::validate_chrome_trace_text(whole).error,
            "traceEvents[2]: timestamp 5e+05 decreases below 9e+06");
  const std::string text = whole.substr(0, whole.size() - 4);
  const obs::ValidationResult result = obs::validate_chrome_trace_text(text);
  EXPECT_FALSE(result);
  EXPECT_EQ(result.events, 0u);
  EXPECT_EQ(result.error.rfind("json parse error at byte", 0), 0u)
      << result.error;
  EXPECT_THROW((void)obs::events_from_chrome_trace(text),
               util::PreconditionError);
  obs::ValidationResult both;
  EXPECT_TRUE(obs::events_from_chrome_trace(text, &both).empty());
  EXPECT_EQ(both.error, result.error);
  oracle::expect_matches_tree(text);
}

}  // namespace
}  // namespace nldl
