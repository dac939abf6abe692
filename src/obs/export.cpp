#include "obs/export.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
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

// One line of the traceEvents array: its sort key, its phase, and where
// the rest of it comes from. That is an event (`event`), or, with `event`
// null, segment `segment` of `blame`'s critical path, printed as a slice
// (phase X) or a flow arrow (s/t/f). Track, name and duration are derived
// when the line is written, which keeps an Emit at 32 bytes: the in-place
// sort moves whole Emits.
struct Emit {
  double ts = 0.0;  // microseconds
  const TraceEvent* event = nullptr;
  const JobBlame* blame = nullptr;
  std::uint32_t segment = 0;
  char phase = 'X';
};

struct Track {
  std::int64_t pid = kSchedulerPid;
  std::int64_t tid = 0;
};

/// The track an event's record goes on: pid 1 with two lanes per worker
/// for chunk spans, pid 2 with one lane per job, pid 3 for the scheduler.
Track track_of(const TraceEvent& event) {
  switch (event.kind) {
    case EventKind::kTransfer:
    case EventKind::kCompute:
      return {kWorkersPid, static_cast<std::int64_t>(2 * event.worker) +
                               (event.kind == EventKind::kCompute ? 1 : 0)};
    case EventKind::kJob:
    case EventKind::kInstallment:
    case EventKind::kRestart:
    case EventKind::kArrival:
    case EventKind::kAdmit:
    case EventKind::kDegrade:
    case EventKind::kReject:
    case EventKind::kPreempt:
    case EventKind::kDeadlineMiss:
      return {kJobsPid, static_cast<std::int64_t>(event.job)};
    case EventKind::kRerate:
    case EventKind::kDispatch:
    case EventKind::kCheckpoint:
    case EventKind::kCompact:
    case EventKind::kReplay:
    case EventKind::kAlert:
      return {kSchedulerPid, 0};
  }
  NLDL_UNREACHABLE("unknown event kind");
}

/// Microseconds of a span, clipped at zero.
double duration_us(double start, double end) {
  return std::max(0.0, end - start) * kMicrosPerSecond;
}

std::size_t infer_workers(const std::vector<TraceEvent>& events) {
  std::size_t workers = 0;
  for (const TraceEvent& event : events) {
    if (event.worker != kNoIndex) workers = std::max(workers, event.worker + 1);
  }
  return workers;
}

/// The workers whose transfer or compute spans the events carry, in
/// ascending index, once each: the worker tracks a document holds.
std::vector<std::size_t> span_workers(const std::vector<TraceEvent>& events) {
  std::vector<std::size_t> workers;
  for (const TraceEvent& event : events) {
    const bool on_worker = event.kind == EventKind::kTransfer ||
                           event.kind == EventKind::kCompute;
    if (on_worker && event.worker != kNoIndex) {
      workers.push_back(event.worker);
    }
  }
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
  return workers;
}

/// One numeric field's text for its last kSlots distinct values, so a
/// value seen again soon (a shared timestamp, a recurring duration or
/// size) is copied instead of formatted again. A miss replaces the
/// oldest slot.
class NumberText {
 public:
  std::string_view operator()(double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (const Slot& slot : slots_) {
      if (slot.size != 0 && slot.bits == bits) return {slot.text, slot.size};
    }
    Slot& slot = slots_[oldest_];
    oldest_ = (oldest_ + 1) % kSlots;
    slot.bits = bits;
    slot.size = static_cast<std::size_t>(
        util::format_json_number(value, slot.text) - slot.text);
    return {slot.text, slot.size};
  }

 private:
  static constexpr std::size_t kSlots = 4;
  struct Slot {
    std::uint64_t bits = 0;
    std::size_t size = 0;  // 0: empty
    char text[util::kJsonNumberChars] = {};
  };
  std::array<Slot, kSlots> slots_{};
  std::size_t oldest_ = 0;
};

template <typename Integer>
void append_integer(std::string& out, Integer value) {
  char text[24];
  const auto result = std::to_chars(text, text + sizeof(text), value);
  NLDL_ASSERT(result.ec == std::errc{}, "integer does not fit its buffer");
  out.append(text, result.ptr);
}

// The fixed fragments of an event record, in the order they are written.
// Each is copied by a length known at compile time.
constexpr std::string_view kFirstOpen = "\n{\"name\":\"";
constexpr std::string_view kNextOpen = ",\n{\"name\":\"";
constexpr std::string_view kPhase = R"(","cat":"nldl","ph":")";
constexpr std::string_view kTs = R"(","ts":)";
constexpr std::string_view kDur = R"(,"dur":)";
constexpr std::string_view kInstantScope = R"(,"s":"t")";
constexpr std::string_view kFlowId = R"(,"id":)";
constexpr std::string_view kBindEnclosing = R"(,"bp":"e")";
constexpr std::string_view kPid = R"(,"pid":)";
constexpr std::string_view kTid = R"(,"tid":)";
constexpr std::string_view kArgs = R"(,"args":{)";
constexpr std::string_view kJobKey = R"("job":)";
constexpr std::string_view kTenantKey = R"("tenant":)";
constexpr std::string_view kWorkerKey = R"("worker":)";
constexpr std::string_view kSizeKey = R"("size":)";
constexpr std::string_view kAlphaKey = R"("alpha":)";
constexpr std::string_view kValueKey = R"("value":)";
constexpr std::string_view kViaJobKey = R"("via_job":)";
constexpr std::string_view kRecordClose = "}}";

/// Longest event kind or blame bucket name a record may carry (the
/// longest, "deadline_miss" and "critical path", have 13 characters).
constexpr std::size_t kMaxNameChars = 24;
/// Longest integer field: -2^63 and 2^64 − 2 both print 20 characters.
constexpr std::size_t kIntegerChars = 20;
constexpr std::size_t kNumberChars = util::kJsonNumberChars;

/// Room one event record can take: every fragment and every field at its
/// longest, whether or not one record can carry them all together.
constexpr std::size_t kMaxRecordChars =
    kNextOpen.size() + kMaxNameChars + kPhase.size() + 1 + kTs.size() +
    kNumberChars + kDur.size() + kNumberChars + kInstantScope.size() +
    kFlowId.size() + kIntegerChars + kBindEnclosing.size() + kPid.size() +
    kIntegerChars + kTid.size() + kIntegerChars + kArgs.size() +
    (1 + kJobKey.size() + kIntegerChars) +
    (1 + kTenantKey.size() + kIntegerChars) +
    (1 + kWorkerKey.size() + kIntegerChars) +
    (1 + kSizeKey.size() + kNumberChars) +
    (1 + kAlphaKey.size() + kNumberChars) +
    (1 + kValueKey.size() + kNumberChars) +
    (1 + kViaJobKey.size() + kIntegerChars) + kRecordClose.size();

/// The document's buffer: a record written at any fill below kFlushBytes
/// fits.
constexpr std::size_t kBufferChars = kFlushBytes + kMaxRecordChars;

char* put(char* out, std::string_view text) noexcept {
  std::memcpy(out, text.data(), text.size());
  return out + text.size();
}

template <typename Integer>
char* put_integer(char* out, Integer value) {
  const auto result = std::to_chars(out, out + kIntegerChars, value);
  NLDL_ASSERT(result.ec == std::errc{}, "integer does not fit its field");
  return result.ptr;
}

/// The Chrome document with no whitespace outside strings and one record
/// per line: `{"displayTimeUnit":"ms","traceEvents":[`, then each
/// metadata or event record as one `{...}` line ending in `,` (the last
/// without), then `]}` and a newline. Bytes gather in one fixed buffer
/// that goes to the stream once per 64 KiB. An event record is written
/// straight into it from the fragments above, util::format_json_number
/// text (NumberText) and std::to_chars integers; the buffer always has
/// room for kMaxRecordChars past the fill it flushes at, and each record
/// checks that it stayed within that bound. Kind and bucket names are
/// plain lower-case words that need no escaping. A metadata line, whose
/// track name carries the label, is assembled in a string through
/// util::append_json_quoted and then copied in.
class ChromeDocument {
 public:
  explicit ChromeDocument(std::ostream& out)
      : out_(out), buffer_(std::make_unique<char[]>(kBufferChars)) {
    put_line(R"({"displayTimeUnit":"ms","traceEvents":[)");
  }

  void metadata(std::int64_t pid, std::int64_t tid, std::string_view meta,
                std::string_view name) {
    line_.assign(first_ ? "\n{" : ",\n{");
    first_ = false;
    line_.append(R"("name":")");
    line_.append(meta);
    line_.append(R"(","ph":"M","pid":)");
    append_integer(line_, pid);
    line_.append(R"(,"tid":)");
    append_integer(line_, tid);
    line_.append(R"(,"args":{"name":)");
    util::append_json_quoted(line_, name);
    line_.append("}}");
    put_line(line_);
  }

  void record(const Emit& emit) {
    char* const start = buffer_.get() + fill_;
    char* p = nullptr;
    bool first_arg = true;
    const auto key = [&p, &first_arg](std::string_view text) {
      if (!first_arg) *p++ = ',';
      first_arg = false;
      p = put(p, text);
    };
    if (emit.event != nullptr) {
      const TraceEvent& event = *emit.event;
      p = head(start, to_string(event.kind), emit,
               emit.phase == 'X' ? duration_us(event.start, event.end) : 0.0,
               -1, track_of(event));
      if (event.job != kNoIndex) {
        key(kJobKey);
        p = put_integer(p, event.job);
      }
      if (event.tenant != kNoIndex) {
        key(kTenantKey);
        p = put_integer(p, event.tenant);
      }
      if (event.worker != kNoIndex) {
        key(kWorkerKey);
        p = put_integer(p, event.worker);
      }
      if (event.size != 0.0) {
        key(kSizeKey);
        p = put(p, size_(event.size));
      }
      if (event.alpha != 0.0) {
        key(kAlphaKey);
        p = put(p, alpha_(event.alpha));
      }
      if (event.value != 0.0) {
        key(kValueKey);
        p = put(p, value_(event.value));
      }
    } else {
      const PathSegment& segment = emit.blame->path[emit.segment];
      const bool slice = emit.phase == 'X';
      const auto job = static_cast<std::int64_t>(emit.blame->job);
      p = head(start, slice ? to_string(segment.kind) : "critical path", emit,
               slice ? duration_us(segment.start, segment.end) : 0.0,
               slice ? -1 : job, {kPathPid, job});
      if (segment.worker != kNoIndex) {
        key(kWorkerKey);
        p = put_integer(p, segment.worker);
      }
      if (segment.via_job != kNoIndex) {
        key(kViaJobKey);
        p = put_integer(p, segment.via_job);
      }
    }
    p = put(p, kRecordClose);
    const auto written = static_cast<std::size_t>(p - start);
    NLDL_ASSERT(written <= kMaxRecordChars, "record overran its bound");
    fill_ += written;
    if (fill_ >= kFlushBytes) flush();
  }

  /// End the last record's line, close the array and the root, write the
  /// rest.
  void finish() {
    put_line("\n]}\n");
    flush();
  }

 private:
  /// Copy `text` in, or write it through when it is longer than the
  /// buffer (a metadata line with a very long label).
  void put_line(std::string_view text) {
    if (text.size() > kBufferChars - fill_) flush();
    if (text.size() > kBufferChars) {
      out_.write(text.data(), static_cast<std::streamsize>(text.size()));
      return;
    }
    (void)put(buffer_.get() + fill_, text);
    fill_ += text.size();
    if (fill_ >= kFlushBytes) flush();
  }

  void flush() {
    out_.write(buffer_.get(), static_cast<std::streamsize>(fill_));
    fill_ = 0;
  }

  /// Write a record from its start up to the opening of its args object
  /// at `out`; `dur` is printed for phase X only, `flow_id` when >= 0.
  char* head(char* out, std::string_view name, const Emit& emit, double dur,
             std::int64_t flow_id, Track track) {
    NLDL_ASSERT(name.size() <= kMaxNameChars, "record name too long");
    char* p = put(out, first_ ? kFirstOpen : kNextOpen);
    first_ = false;
    p = put(p, name);
    p = put(p, kPhase);
    *p++ = emit.phase;
    p = put(p, kTs);
    p = put(p, ts_(emit.ts));
    if (emit.phase == 'X') {
      p = put(p, kDur);
      p = put(p, dur_(dur));
    }
    if (emit.phase == 'i') p = put(p, kInstantScope);
    if (flow_id >= 0) {
      p = put(p, kFlowId);
      p = put_integer(p, flow_id);
      if (emit.phase == 'f') p = put(p, kBindEnclosing);
    }
    p = put(p, kPid);
    p = put_integer(p, track.pid);
    p = put(p, kTid);
    p = put_integer(p, track.tid);
    return put(p, kArgs);
  }

  std::ostream& out_;
  std::unique_ptr<char[]> buffer_;
  std::size_t fill_ = 0;  // bytes buffered, below kFlushBytes between calls
  std::string line_;      // the metadata line being assembled
  bool first_ = true;
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
    emit.ts = event->start * kMicrosPerSecond;
    if (event->kind == EventKind::kJob) {
      emit.phase = 'B';
      emits.push_back(emit);
      emit.phase = 'E';
      emit.ts = event->end * kMicrosPerSecond;
      emits.push_back(emit);
      continue;
    }
    if (event->kind == EventKind::kTransfer ||
        event->kind == EventKind::kCompute) {
      NLDL_REQUIRE(event->worker != kNoIndex,
                   "transfer/compute span without a worker");
    }
    emit.phase = is_span(event->kind) ? 'X' : 'i';
    emits.push_back(emit);
  }
  // Critical-path overlay: one pid-4 thread per analyzed job, X slices
  // per path segment named by blame bucket, stitched by s/t/f flow
  // arrows so Perfetto highlights the causal chain. Merged into `emits`
  // BEFORE the global sort, keeping the timestamp-monotonicity the
  // validator checks.
  if (options.critical_path != nullptr) {
    for (const JobBlame& blame : options.critical_path->jobs()) {
      const std::vector<PathSegment>& path = blame.path;
      NLDL_REQUIRE(path.size() <= std::numeric_limits<std::uint32_t>::max(),
                   "critical path too long to export");
      for (std::size_t i = 0; i < path.size(); ++i) {
        Emit slice;
        slice.ts = path[i].start * kMicrosPerSecond;
        slice.blame = &blame;
        slice.segment = static_cast<std::uint32_t>(i);
        emits.push_back(slice);
        if (path.size() < 2) continue;
        slice.phase = i == 0 ? 's' : (i + 1 == path.size() ? 'f' : 't');
        emits.push_back(slice);
      }
    }
  }

  // The B/E expansion can put an E after a later-starting event's record;
  // restore global timestamp order in place. The sort is stable, so
  // emission order breaks ties: the lines come out in (ts, emission
  // index) order.
  std::stable_sort(emits.begin(), emits.end(),
                   [](const Emit& a, const Emit& b) { return a.ts < b.ts; });

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
  const auto worker_names = [&](std::size_t w) {
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
  };
  if (options.workers != 0) {
    for (std::size_t w = 0; w < options.workers; ++w) worker_names(w);
  } else {
    for (const std::size_t w : span_workers(events)) worker_names(w);
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
  for (const Emit& emit : emits) document.record(emit);
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
