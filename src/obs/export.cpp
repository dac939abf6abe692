#include "obs/export.hpp"

#include <algorithm>
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

// One line of the traceEvents array, pre-routed to its track. `event`
// is null for synthesized critical-path slices and flow arrows, which
// carry their own name/args fields instead.
struct Emit {
  double ts = 0.0;  // microseconds
  char phase = 'X';
  double dur = 0.0;  // X only
  std::int64_t pid = kSchedulerPid;
  std::int64_t tid = 0;
  const TraceEvent* event = nullptr;
  const char* name = nullptr;         // overrides to_string(event->kind)
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

void write_metadata(util::JsonWriter& json, std::int64_t pid, std::int64_t tid,
                    const char* meta, const std::string& name) {
  json.begin_object();
  json.key("name").value(meta);
  json.key("ph").value("M");
  json.key("pid").value(pid);
  json.key("tid").value(tid);
  json.key("args").begin_object();
  json.key("name").value(name);
  json.end_object();
  json.end_object();
}

void write_args(util::JsonWriter& json, const TraceEvent& event) {
  json.key("args").begin_object();
  if (event.job != kNoIndex) json.key("job").value(event.job);
  if (event.tenant != kNoIndex) json.key("tenant").value(event.tenant);
  if (event.worker != kNoIndex) json.key("worker").value(event.worker);
  if (event.size != 0.0) json.key("size").value(event.size);
  if (event.alpha != 0.0) json.key("alpha").value(event.alpha);
  if (event.value != 0.0) json.key("value").value(event.value);
  json.end_object();
}

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
  std::vector<Emit> emits;
  emits.reserve(ordered.size() + ordered.size() / 4);
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
  // restore global timestamp order (stable: emission order breaks ties).
  std::stable_sort(emits.begin(), emits.end(),
                   [](const Emit& a, const Emit& b) { return a.ts < b.ts; });

  util::JsonWriter json(out);
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  json.key("traceEvents").begin_array();

  // Track metadata first: process and thread names.
  write_metadata(json, kWorkersPid, 0, "process_name",
                 options.label + " workers");
  write_metadata(json, kJobsPid, 0, "process_name", options.label + " jobs");
  write_metadata(json, kSchedulerPid, 0, "process_name",
                 options.label + " scheduler");
  for (std::size_t w = 0; w < workers; ++w) {
    std::string worker_name = "w";
    worker_name += std::to_string(w);
    write_metadata(json, kWorkersPid, static_cast<std::int64_t>(2 * w),
                   "thread_name", worker_name + " link");
    write_metadata(json, kWorkersPid, static_cast<std::int64_t>(2 * w + 1),
                   "thread_name", worker_name + " cpu");
  }
  for (const auto& [job, tenant] : jobs) {
    std::string name = "job " + std::to_string(job);
    if (tenant != kNoIndex) name += " (tenant " + std::to_string(tenant) + ")";
    write_metadata(json, kJobsPid, static_cast<std::int64_t>(job),
                   "thread_name", name);
  }
  write_metadata(json, kSchedulerPid, 0, "thread_name", "master");
  if (options.critical_path != nullptr) {
    write_metadata(json, kPathPid, 0, "process_name",
                   options.label + " critical path");
    for (const JobBlame& blame : options.critical_path->jobs()) {
      write_metadata(json, kPathPid, static_cast<std::int64_t>(blame.job),
                     "thread_name",
                     "job " + std::to_string(blame.job) + " path");
    }
  }

  for (const Emit& emit : emits) {
    json.begin_object();
    json.key("name").value(emit.name != nullptr
                               ? emit.name
                               : to_string(emit.event->kind));
    json.key("cat").value("nldl");
    json.key("ph").value(std::string_view(&emit.phase, 1));
    json.key("ts").value(emit.ts);
    if (emit.phase == 'X') json.key("dur").value(emit.dur);
    if (emit.phase == 'i') json.key("s").value("t");
    if (emit.flow_id >= 0) {
      json.key("id").value(emit.flow_id);
      if (emit.phase == 'f') json.key("bp").value("e");
    }
    json.key("pid").value(emit.pid);
    json.key("tid").value(emit.tid);
    if (emit.event != nullptr) {
      write_args(json, *emit.event);
    } else {
      json.key("args").begin_object();
      if (emit.arg_worker != kNoIndex) {
        json.key("worker").value(emit.arg_worker);
      }
      if (emit.arg_via != kNoIndex) json.key("via_job").value(emit.arg_via);
      json.end_object();
    }
    json.end_object();
  }

  json.end_array();
  json.end_object();
  out << '\n';
}

Attribution attribute_time(const std::vector<TraceEvent>& events,
                           std::size_t workers, double horizon) {
  Attribution result;
  result.workers = workers != 0 ? workers : infer_workers(events);
  if (horizon <= 0.0) {
    for (const TraceEvent& event : events) {
      horizon = std::max(horizon, event.end);
    }
  }
  result.horizon = horizon;
  if (result.workers == 0 || horizon <= 0.0) return result;

  std::vector<std::vector<std::pair<double, double>>> comm(result.workers);
  std::vector<std::vector<std::pair<double, double>>> compute(result.workers);
  double restart_estimate = 0.0;
  for (const TraceEvent& event : events) {
    if (event.kind == EventKind::kRestart) {
      restart_estimate += std::max(0.0, event.end - event.start);
      continue;
    }
    if (event.worker == kNoIndex || event.worker >= result.workers) continue;
    if (event.kind == EventKind::kTransfer) {
      comm[event.worker].emplace_back(event.start, event.end);
      ++result.span_events;
    } else if (event.kind == EventKind::kCompute) {
      compute[event.worker].emplace_back(event.start, event.end);
      ++result.span_events;
    }
  }

  double comm_total = 0.0;
  double compute_total = 0.0;
  for (std::size_t w = 0; w < result.workers; ++w) {
    const double comm_len = union_length(comm[w]);
    const double compute_len = union_length(compute[w]);
    // Receive time overlapped by compute is charged to compute: the
    // worker is doing useful work while its link drains.
    comm_total += comm_len - intersection_length(comm[w], compute[w]);
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
