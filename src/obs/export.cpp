#include "obs/export.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string_view>
#include <utility>

#include "obs/critical_path.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"

namespace nldl::obs {

namespace {

constexpr double kMicrosPerSecond = 1e6;
constexpr std::int64_t kWorkersPid = 1;
constexpr std::int64_t kJobsPid = 2;
constexpr std::int64_t kSchedulerPid = 3;
constexpr std::int64_t kPathPid = 4;

/// Buffered bytes that trigger a write() before the document completes.
constexpr std::size_t kFlushBytes = std::size_t{64} * 1024;

// One line of the traceEvents array, pre-routed to its track. `event`
// is null for synthesized critical-path slices and flow arrows, which
// carry their own args fields instead.
struct Emit {
  double ts = 0.0;  // microseconds
  char phase = 'X';
  double dur = 0.0;  // X only
  std::int64_t pid = kSchedulerPid;
  std::int64_t tid = 0;
  const TraceEvent* event = nullptr;
  const char* name = nullptr;         // an event kind or blame bucket name
  std::int64_t flow_id = -1;          // s/t/f flow binding id (the job)
  std::size_t arg_worker = kNoIndex;  // synthesized-slice args
  std::size_t arg_via = kNoIndex;
};

std::size_t infer_workers(const std::vector<TraceEvent>& events) {
  std::size_t workers = 0;
  for (const TraceEvent& event : events) {
    if (event.worker != kNoIndex) workers = std::max(workers, event.worker + 1);
  }
  return workers;
}

/// One numeric field's text, formatted again only when the value's bits
/// change: consecutive records often share a timestamp.
class NumberText {
 public:
  std::string_view operator()(double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    if (size_ == 0 || bits != bits_) {
      bits_ = bits;
      size_ = static_cast<std::size_t>(
          util::format_json_number(value, text_) - text_);
    }
    return {text_, size_};
  }

 private:
  std::uint64_t bits_ = 0;
  std::size_t size_ = 0;
  char text_[util::kJsonNumberChars] = {};
};

template <typename Integer>
void append_integer(std::string& out, Integer value) {
  char text[24];
  const auto result = std::to_chars(text, text + sizeof(text), value);
  NLDL_ASSERT(result.ec == std::errc{}, "integer does not fit its buffer");
  out.append(text, result.ptr);
}

/// The Chrome document with no whitespace outside strings and one record
/// per line: `{"displayTimeUnit":"ms","traceEvents":[`, then each
/// metadata or event record as one `{...}` line ending in `,` (the last
/// without), then `]}` and a newline. It is printed from fixed text
/// fragments into a buffer that goes to the stream once per 64 KiB. Kind
/// and bucket names are plain lower-case words that need no escaping;
/// track names, which carry the label, are quoted in place through
/// util::append_json_quoted.
class ChromeDocument {
 public:
  explicit ChromeDocument(std::ostream& out) : out_(out) {
    buffer_.reserve(2 * kFlushBytes);
    put(R"({"displayTimeUnit":"ms","traceEvents":[)");
  }

  void metadata(std::int64_t pid, std::int64_t tid, std::string_view meta,
                std::string_view name) {
    begin_record();
    put(R"("name":")");
    put(meta);
    put(R"(","ph":"M","pid":)");
    append_integer(buffer_, pid);
    put(R"(,"tid":)");
    append_integer(buffer_, tid);
    put(R"(,"args":{"name":)");
    util::append_json_quoted(buffer_, name);
    put("}");
    end_record();
  }

  void record(const Emit& emit) {
    begin_record();
    put(R"("name":")");
    put(emit.name);
    put(R"(","cat":"nldl","ph":")");
    buffer_ += emit.phase;
    put(R"(","ts":)");
    put(ts_(emit.ts));
    if (emit.phase == 'X') {
      put(R"(,"dur":)");
      put(dur_(emit.dur));
    }
    if (emit.phase == 'i') put(R"(,"s":"t")");
    if (emit.flow_id >= 0) {
      put(R"(,"id":)");
      append_integer(buffer_, emit.flow_id);
      if (emit.phase == 'f') put(R"(,"bp":"e")");
    }
    put(R"(,"pid":)");
    append_integer(buffer_, emit.pid);
    put(R"(,"tid":)");
    append_integer(buffer_, emit.tid);
    put(R"(,"args":{)");
    args_ = 0;
    if (emit.event != nullptr) {
      const TraceEvent& event = *emit.event;
      if (event.job != kNoIndex) arg_integer("job", event.job);
      if (event.tenant != kNoIndex) arg_integer("tenant", event.tenant);
      if (event.worker != kNoIndex) arg_integer("worker", event.worker);
      if (event.size != 0.0) arg_number("size", size_(event.size));
      if (event.alpha != 0.0) arg_number("alpha", alpha_(event.alpha));
      if (event.value != 0.0) arg_number("value", value_(event.value));
    } else {
      if (emit.arg_worker != kNoIndex) arg_integer("worker", emit.arg_worker);
      if (emit.arg_via != kNoIndex) arg_integer("via_job", emit.arg_via);
    }
    put("}");
    end_record();
  }

  /// End the last record's line, close the array and the root, write the
  /// rest.
  void finish() {
    put("\n]}\n");
    flush();
  }

 private:
  void put(std::string_view text) { buffer_.append(text); }

  void arg_key(std::string_view key) {
    put(args_ == 0 ? "\"" : ",\"");
    put(key);
    put("\":");
    ++args_;
  }
  void arg_integer(std::string_view key, std::size_t value) {
    arg_key(key);
    append_integer(buffer_, value);
  }
  void arg_number(std::string_view key, std::string_view text) {
    arg_key(key);
    put(text);
  }

  void begin_record() {
    put(first_ ? "\n{" : ",\n{");
    first_ = false;
  }
  void end_record() {
    put("}");
    if (buffer_.size() >= kFlushBytes) flush();
  }
  void flush() {
    out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }

  std::ostream& out_;
  std::string buffer_;
  bool first_ = true;
  std::size_t args_ = 0;  // args written in the current record
  NumberText ts_;
  NumberText dur_;
  NumberText size_;
  NumberText alpha_;
  NumberText value_;
};

// Merge intervals in place; returns total union length.
double union_length(std::vector<std::pair<double, double>>& intervals) {
  if (intervals.empty()) return 0.0;
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  std::size_t out = 0;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].first <= intervals[out].second) {
      intervals[out].second =
          std::max(intervals[out].second, intervals[i].second);
    } else {
      ++out;
      intervals[out] = intervals[i];
    }
  }
  intervals.resize(out + 1);
  for (const auto& [lo, hi] : intervals) total += hi - lo;
  return total;
}

// Intersection length of two merged (sorted, disjoint) interval lists.
double intersection_length(const std::vector<std::pair<double, double>>& a,
                           const std::vector<std::pair<double, double>>& b) {
  double total = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].first, b[j].first);
    const double hi = std::min(a[i].second, b[j].second);
    if (hi > lo) total += hi - lo;
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return total;
}

}  // namespace

void write_chrome_trace(std::ostream& out,
                        const std::vector<TraceEvent>& events,
                        const ChromeTraceOptions& options) {
  const std::size_t workers =
      options.workers != 0 ? options.workers : infer_workers(events);

  // Stable sort by start time so the timeline is monotone; emission
  // order breaks ties, keeping the output deterministic.
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events.size());
  for (const TraceEvent& event : events) ordered.push_back(&event);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->start < b->start;
                   });

  // Route every event to its track; kJob spans become balanced B/E pairs.
  // One line per event, a second per kJob, and the critical-path overlay.
  std::size_t lines = events.size();
  for (const TraceEvent& event : events) {
    if (event.kind == EventKind::kJob) ++lines;
  }
  if (options.critical_path != nullptr) {
    for (const JobBlame& blame : options.critical_path->jobs()) {
      lines += blame.path.size() < 2 ? blame.path.size()
                                     : 2 * blame.path.size();
    }
  }
  std::vector<Emit> emits;
  emits.reserve(lines);
  // Jobs seen, in first-appearance order, with a tenant when known;
  // `slot_of` indexes them by job id (ordered: no hash map).
  std::vector<std::pair<std::size_t, std::size_t>> jobs;
  std::map<std::size_t, std::size_t> slot_of;
  const auto note_job = [&jobs, &slot_of](const TraceEvent& event) {
    if (event.job == kNoIndex) return;
    const auto [it, inserted] = slot_of.try_emplace(event.job, jobs.size());
    if (inserted) {
      jobs.emplace_back(event.job, event.tenant);
    } else if (jobs[it->second].second == kNoIndex) {
      jobs[it->second].second = event.tenant;
    }
  };

  for (const TraceEvent* event : ordered) {
    note_job(*event);
    Emit emit;
    emit.event = event;
    emit.name = to_string(event->kind);
    emit.ts = event->start * kMicrosPerSecond;
    switch (event->kind) {
      case EventKind::kTransfer:
      case EventKind::kCompute: {
        NLDL_REQUIRE(event->worker != kNoIndex,
                     "transfer/compute span without a worker");
        emit.phase = 'X';
        emit.dur = std::max(0.0, event->end - event->start) * kMicrosPerSecond;
        emit.pid = kWorkersPid;
        emit.tid = static_cast<std::int64_t>(2 * event->worker) +
                   (event->kind == EventKind::kCompute ? 1 : 0);
        emits.push_back(emit);
        break;
      }
      case EventKind::kJob: {
        emit.phase = 'B';
        emit.pid = kJobsPid;
        emit.tid = static_cast<std::int64_t>(event->job);
        emits.push_back(emit);
        Emit end = emit;
        end.phase = 'E';
        end.ts = event->end * kMicrosPerSecond;
        emits.push_back(end);
        break;
      }
      case EventKind::kInstallment:
      case EventKind::kRestart: {
        emit.phase = 'X';
        emit.dur = std::max(0.0, event->end - event->start) * kMicrosPerSecond;
        emit.pid = kJobsPid;
        emit.tid = static_cast<std::int64_t>(event->job);
        emits.push_back(emit);
        break;
      }
      case EventKind::kArrival:
      case EventKind::kAdmit:
      case EventKind::kDegrade:
      case EventKind::kReject:
      case EventKind::kPreempt:
      case EventKind::kDeadlineMiss: {
        emit.phase = 'i';
        emit.pid = kJobsPid;
        emit.tid = static_cast<std::int64_t>(event->job);
        emits.push_back(emit);
        break;
      }
      case EventKind::kRerate:
      case EventKind::kDispatch:
      case EventKind::kCheckpoint:
      case EventKind::kCompact:
      case EventKind::kReplay:
      case EventKind::kAlert: {
        emit.phase = 'i';
        emit.pid = kSchedulerPid;
        emit.tid = 0;
        emits.push_back(emit);
        break;
      }
    }
  }
  // Critical-path overlay: one pid-4 thread per analyzed job, X slices
  // per path segment named by blame bucket, stitched by s/t/f flow
  // arrows so Perfetto highlights the causal chain. Merged into `emits`
  // BEFORE the global sort, keeping the timestamp-monotonicity the
  // validator checks.
  if (options.critical_path != nullptr) {
    for (const JobBlame& blame : options.critical_path->jobs()) {
      const std::vector<PathSegment>& path = blame.path;
      for (std::size_t i = 0; i < path.size(); ++i) {
        const PathSegment& segment = path[i];
        Emit slice;
        slice.ts = segment.start * kMicrosPerSecond;
        slice.phase = 'X';
        slice.dur =
            std::max(0.0, segment.end - segment.start) * kMicrosPerSecond;
        slice.pid = kPathPid;
        slice.tid = static_cast<std::int64_t>(blame.job);
        slice.name = to_string(segment.kind);
        slice.arg_worker = segment.worker;
        slice.arg_via = segment.via_job;
        emits.push_back(slice);
        if (path.size() < 2) continue;
        Emit flow = slice;
        flow.phase = i == 0 ? 's' : (i + 1 == path.size() ? 'f' : 't');
        flow.dur = 0.0;
        flow.name = "critical path";
        flow.flow_id = static_cast<std::int64_t>(blame.job);
        emits.push_back(flow);
      }
    }
  }

  // The B/E expansion can put an E after a later-starting event's record;
  // restore global timestamp order (stable: emission order breaks ties)
  // by sorting (ts, line) keys instead of whole Emits.
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(emits.size());
  for (std::size_t i = 0; i < emits.size(); ++i) {
    order.emplace_back(emits[i].ts, i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  ChromeDocument document(out);
  // Track metadata first: process and thread names, each built in one
  // reused buffer.
  std::string name;
  const auto process_name = [&](std::int64_t pid, std::string_view what) {
    name.assign(options.label).append(what);
    document.metadata(pid, 0, "process_name", name);
  };
  process_name(kWorkersPid, " workers");
  process_name(kJobsPid, " jobs");
  process_name(kSchedulerPid, " scheduler");
  for (std::size_t w = 0; w < workers; ++w) {
    name.assign("w");
    append_integer(name, w);
    const std::size_t stem = name.size();
    name.append(" link");
    document.metadata(kWorkersPid, static_cast<std::int64_t>(2 * w),
                      "thread_name", name);
    name.resize(stem);
    name.append(" cpu");
    document.metadata(kWorkersPid, static_cast<std::int64_t>(2 * w + 1),
                      "thread_name", name);
  }
  for (const auto& [job, tenant] : jobs) {
    name.assign("job ");
    append_integer(name, job);
    if (tenant != kNoIndex) {
      name.append(" (tenant ");
      append_integer(name, tenant);
      name += ')';
    }
    document.metadata(kJobsPid, static_cast<std::int64_t>(job),
                      "thread_name", name);
  }
  document.metadata(kSchedulerPid, 0, "thread_name", "master");
  if (options.critical_path != nullptr) {
    process_name(kPathPid, " critical path");
    for (const JobBlame& blame : options.critical_path->jobs()) {
      name.assign("job ");
      append_integer(name, blame.job);
      name.append(" path");
      document.metadata(kPathPid, static_cast<std::int64_t>(blame.job),
                        "thread_name", name);
    }
  }
  for (const auto& [ts, line] : order) document.record(emits[line]);
  document.finish();
}

Attribution attribute_time(const std::vector<TraceEvent>& events,
                           std::size_t workers) {
  Attribution result;
  result.workers = workers != 0 ? workers : infer_workers(events);
  double horizon = 0.0;
  for (const TraceEvent& event : events) {
    horizon = std::max(horizon, event.end);
  }
  result.horizon = horizon;
  if (result.workers == 0 || horizon <= 0.0) return result;

  // Span intervals per worker, only for the workers that carry spans, in
  // ascending index order: a worker without spans adds exact zeros to
  // both sums, so leaving it out keeps their bits, and any index below
  // 2^53 costs one entry.
  struct WorkerSpans {
    std::vector<std::pair<double, double>> comm;
    std::vector<std::pair<double, double>> compute;
  };
  std::map<std::size_t, WorkerSpans> spans;
  double restart_estimate = 0.0;
  for (const TraceEvent& event : events) {
    if (event.kind == EventKind::kRestart) {
      restart_estimate += std::max(0.0, event.end - event.start);
      continue;
    }
    if (event.worker == kNoIndex || event.worker >= result.workers) continue;
    if (event.kind == EventKind::kTransfer) {
      spans[event.worker].comm.emplace_back(event.start, event.end);
      ++result.span_events;
    } else if (event.kind == EventKind::kCompute) {
      spans[event.worker].compute.emplace_back(event.start, event.end);
      ++result.span_events;
    }
  }

  double comm_total = 0.0;
  double compute_total = 0.0;
  for (auto& [worker, lanes] : spans) {
    const double comm_len = union_length(lanes.comm);
    const double compute_len = union_length(lanes.compute);
    // Receive time overlapped by compute is charged to compute: the
    // worker is doing useful work while its link drains.
    comm_total += comm_len - intersection_length(lanes.comm, lanes.compute);
    compute_total += compute_len;
  }
  result.comm = comm_total;
  result.restart = std::min(restart_estimate, compute_total);
  result.compute = compute_total - result.restart;
  result.idle = std::max(0.0, result.total() - comm_total - compute_total);
  return result;
}

std::string render_attribution(const Attribution& attribution,
                               const std::string& label) {
  const double total = attribution.total();
  const double pct = total > 0.0 ? 100.0 / total : 0.0;
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line),
                "time attribution%s%s: %zu workers, horizon %.4g s "
                "(%.4g worker-s, %zu spans)\n",
                label.empty() ? "" : " — ", label.c_str(), attribution.workers,
                attribution.horizon, total, attribution.span_events);
  out += line;
  const auto row = [&](const char* name, double seconds) {
    std::snprintf(line, sizeof(line), "  %-18s %12.4f s  %6.2f%%\n", name,
                  seconds, seconds * pct);
    out += line;
  };
  row("comm (exclusive)", attribution.comm);
  row("compute (net)", attribution.compute);
  row("restart re-work", attribution.restart);
  row("idle", attribution.idle);
  std::snprintf(line, sizeof(line), "  %-18s %12.4f s  %6.2f%%\n", "accounted",
                attribution.comm + attribution.compute + attribution.restart +
                    attribution.idle,
                attribution.coverage() * 100.0);
  out += line;
  return out;
}

}  // namespace nldl::obs
