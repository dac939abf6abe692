// Trace exporters: Perfetto-loadable Chrome trace-event JSON and an
// ASCII time-attribution summary.
//
// The Chrome export follows the trace-event format's JSON Object Format
// ({"traceEvents": [...]}): complete spans are "X" events with ts/dur in
// microseconds (simulated seconds × 1e6), job lifetimes are balanced
// "B"/"E" pairs, scheduler moments are "i" instants, and "M" metadata
// events name the tracks. Track layout: pid 1 "workers" with two lanes
// per worker (link + cpu), pid 2 "jobs" with one lane per job (named
// with its tenant), pid 3 "scheduler" for re-rates, dispatch barriers,
// and the replay machinery. Load the file in https://ui.perfetto.dev or
// chrome://tracing.
//
// The attribution summary answers the paper's accounting question in a
// terminal: over the traced horizon, how many worker-seconds went to
// communication, (net) compute, restart re-work, and idling. The four
// buckets form an exact partition of workers × horizon, so the total
// always accounts for 100% of worker-seconds (the acceptance bar is
// ≥99%; see tests/test_obs.cpp).
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace nldl::obs {

class CriticalPath;

struct ChromeTraceOptions {
  /// Worker tracks to name: workers 0 .. workers − 1. 0 names only the
  /// workers whose transfer or compute spans the events carry, in
  /// ascending index, so a sparse index (worker 3,000,000, or one near
  /// 2^53) costs two metadata lines, not one pair per index below it.
  std::size_t workers = 0;
  /// Process-name prefix shown in the Perfetto track list.
  std::string label = "nldl";
  /// When set, each analyzed job's critical path is exported as a
  /// highlighted pid-4 track: one X slice per path segment (named by its
  /// blame bucket) stitched together with s/t/f flow arrows (id = job),
  /// so Perfetto draws the causal chain. Borrowed pointer; must outlive
  /// the call.
  const CriticalPath* critical_path = nullptr;
};

/// Write the events as Chrome trace-event JSON. Events are stably sorted
/// by start time (emission order breaks ties), so the output is
/// deterministic for a deterministic recording. Job tracks are named in
/// the order jobs first appear, found through an ordered index from job
/// id (O(log jobs) per event). Worker tracks are named as
/// ChromeTraceOptions::workers says.
///
/// Layout: no whitespace outside strings and one trace event per line.
/// The first line is `{"displayTimeUnit":"ms","traceEvents":[`; each
/// metadata or event record follows as one `{...}` line, ending in `,`
/// except the last; the last line is `]}`, followed by one newline.
/// Numbers are util::format_json_number's shortest round-trip text (so
/// non-finite values print null whatever the C locale), and the label and
/// track names are escaped as util::json_quote escapes them.
///
/// How the bytes are printed: into one fixed buffer written to `out` once
/// per 64 KiB. An event record goes straight into that buffer as fixed
/// text fragments of compile-time length, std::to_chars integers and
/// number text, under a per-record length bound that the buffer always
/// has room for and each record asserts. Each numeric field (ts, dur,
/// size, alpha, value) keeps the text of its last four distinct values
/// and formats only a value none of them holds (the formatter keeps its
/// round-trip check). Metadata lines, whose names carry the label, are
/// assembled through util::append_json_quoted and copied in. The records
/// are sorted in place by (ts, emission index).
///
/// Where this is pinned: in tests/test_obs.cpp, ChromeExport.
/// PinnedTraceBytes holds one document verbatim; the MatchesTheReference*
/// tests require the bytes of a test-local exporter built on
/// util::JsonWriter calls, with its whitespace moved to this layout, over
/// server traces, escapes, non-finite args and a comma locale; and
/// ChromeExport.OneRecordPerLine parses every record line on its own;
/// ChromeImport.GeneratedExportsRoundTrip compares 48 seeded streams, and
/// ChromeExport.MatchesTheReferenceAtTheRecordLengthBound the longest
/// record, with the reference;
/// ChromeExport.SparseWorkerIndicesNameOnlyTheirTracks exports spans on
/// worker 3,000,000 and on one near 2^53. The trace_one_event_per_line
/// ctest entry counts the lines of a file written by bench_soak.
void write_chrome_trace(std::ostream& out,
                        const std::vector<TraceEvent>& events,
                        const ChromeTraceOptions& options = {});

/// Time-attribution accounting over a recorded trace.
struct Attribution {
  std::size_t workers = 0;   ///< attributed worker tracks
  double horizon = 0.0;      ///< [0, horizon] simulated seconds
  double comm = 0.0;         ///< worker-s receiving with no compute overlap
  double compute = 0.0;      ///< worker-s computing, net of restart re-work
  double restart = 0.0;      ///< worker-s of restart surcharge (estimate)
  double idle = 0.0;         ///< worker-s neither receiving nor computing
  std::size_t span_events = 0;

  [[nodiscard]] double total() const noexcept {
    return static_cast<double>(workers) * horizon;
  }
  /// Fraction of total worker-seconds the four buckets account for
  /// (exactly 1 by construction, modulo rounding).
  [[nodiscard]] double coverage() const noexcept {
    const double t = total();
    return t > 0.0 ? (comm + compute + restart + idle) / t : 1.0;
  }
};

/// Partition workers × [0, horizon] into comm / compute / restart / idle.
/// Per worker: compute = union length of its compute spans, comm = union
/// length of its transfer spans minus the part overlapped by compute
/// (overlap is charged to compute — that lane is doing useful work),
/// idle = the remainder. The global restart estimate (sum of kRestart
/// span durations, capped by total compute) is then carved out of the
/// compute bucket, keeping the partition exact. The horizon is the latest
/// event end time; `workers` 0 infers the worker count from the events.
[[nodiscard]] Attribution attribute_time(const std::vector<TraceEvent>& events,
                                         std::size_t workers);

/// Render the attribution as a small ASCII table; `label` names the
/// policy/scenario in the header line.
[[nodiscard]] std::string render_attribution(const Attribution& attribution,
                                             const std::string& label);

}  // namespace nldl::obs
