// Validation for exported observability artifacts.
//
// Two checkers, shared by tests/test_obs.cpp, the tools/trace_check CLI,
// and CI: a Chrome trace-event schema validator (every event well-formed,
// timestamps monotone across the stream, begin/end balanced per track),
// which reads the trace in one streaming pass beside its decoder, and a
// deterministic-payload comparison for the split bench JSON
// (bench::Harness writes {"deterministic": ..., "measured": ...}; only
// the former must reproduce bitwise across machines and runs). The
// comparison also takes a relative tolerance, to report how far a
// deliberate numeric change moved a payload.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "util/json_parse.hpp"

namespace nldl::obs {

struct ValidationResult {
  bool ok = true;
  std::string error;     ///< first failure, empty when ok
  std::size_t events = 0;  ///< trace events checked (metadata included)

  explicit operator bool() const noexcept { return ok; }
};

/// Validate an exported Chrome trace-event document (JSON Object Format):
/// a "traceEvents" array whose entries carry name/ph/pid/tid, a numeric
/// ts (metadata "M" events excepted), ph one of M/X/B/E/i/C/s/t/f, a
/// non-negative dur on "X" events, non-decreasing ts over non-metadata
/// events, balanced B/E nesting per (pid, tid) track, and numeric "job",
/// "worker" and "tenant" args that are whole numbers in [0, 2^53).
///
/// One streaming pass over `text` (util::JsonReader), with no document
/// tree. The verdict is the one a parse-then-check would give:
///   * a JSON parse error anywhere wins over a schema failure earlier in
///     the text, and comes back as a failed result, not an exception;
///   * otherwise the first failing event, in array order, names the
///     error; an unclosed track is reported once every event has passed;
///   * of a duplicated key, the first occurrence counts (the first
///     "traceEvents", the first "pid" of an event, the first "job" of its
///     first "args");
///   * keys and strings are compared unescaped ("p\u0069d" is "pid").
/// `events` counts the entries checked when the document validates or
/// fails on an unclosed track, and is 0 after any other failure.
/// Memory held besides the text: the current event's fields, the last
/// ts, and one open-B/E depth per (pid, tid) track.
[[nodiscard]] ValidationResult validate_chrome_trace_text(
    std::string_view text);

/// One difference between two deterministic payloads.
struct PayloadDifference {
  std::string path;  ///< JSON path, e.g. deterministic.points[3].p50
  std::string a;     ///< the first document's value (containers abbreviated)
  std::string b;     ///< the second document's value
  std::string what;  ///< e.g. "relative 1.9e-02", "key missing"
};

/// Outcome of compare_deterministic_payload.
struct PayloadComparison {
  std::size_t leaves = 0;     ///< scalar leaves present in both payloads
  std::size_t moved = 0;      ///< of those, leaves whose values differ
  double max_relative = 0.0;  ///< largest |a − b| / max(|a|, |b|)
  std::string max_path;       ///< where max_relative occurs; empty if none
  /// Numbers beyond the tolerance, and integers that changed at all.
  std::vector<PayloadDifference> beyond;
  /// Structural differences: kinds, strings, booleans, keys, array lengths
  /// (and a document without a "deterministic" payload).
  std::vector<PayloadDifference> mismatches;

  /// True when nothing is beyond the tolerance and the structure matches.
  explicit operator bool() const noexcept {
    return beyond.empty() && mismatches.empty();
  }
};

/// Compare the deterministic payloads of two bench JSON documents, the
/// values under "deterministic". The structure must match exactly: kinds,
/// strings, booleans, object keys in order, array lengths. A number may
/// move by at most `rel_tol` relative to the larger magnitude, except that
/// a number integral in both documents (a count, a digest) must not move at
/// all. The default rel_tol of 0 is the bitwise check: doubles equal as
/// printed. Requires a finite rel_tol >= 0.
[[nodiscard]] PayloadComparison compare_deterministic_payload(
    const util::JsonValue& a, const util::JsonValue& b, double rel_tol = 0.0);

/// Reconstruct the TraceEvent stream from an exported Chrome trace
/// (`write_chrome_trace`'s inverse, up to the lossy microsecond
/// encoding: times come back as ts/1e6, so span ends may differ from
/// the original by an ulp — CriticalPath takes a match tolerance for
/// exactly this). Metadata, flow arrows, and the pid-4 critical-path
/// overlay are skipped; kJob events are rebuilt from their B/E pairs.
/// Throws util::PreconditionError on malformed JSON and on events the
/// exporter cannot have written (unknown name, unbalanced B/E, a numeric
/// "job", "worker" or "tenant" arg that is not a whole number in
/// [0, 2^53); the message names the arg).
///
/// One streaming pass over `text`, under the precedence rules of
/// validate_chrome_trace_text: a parse error anywhere wins over a decode
/// failure earlier in the text, and the first occurrence of a duplicated
/// key counts. When `validation` is non-null the same pass also
/// validates, and *validation receives validate_chrome_trace_text's
/// exact verdict; on a failed verdict the result is empty and nothing
/// is thrown, so a decode failure surfaces only for a valid document.
/// Memory held besides the text: the current event's fields, the open
/// job "B" events, the decoded events (and the validation state).
[[nodiscard]] std::vector<TraceEvent> events_from_chrome_trace(
    std::string_view text, ValidationResult* validation = nullptr);

/// Validate a `MetricsRegistry::write_json` dump: one flat object whose
/// members are all numbers (counters and gauges). `events` reports the
/// entry count.
[[nodiscard]] ValidationResult validate_metrics_json(
    const util::JsonValue& document);

}  // namespace nldl::obs
