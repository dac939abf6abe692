#include "obs/critical_path.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <utility>

#include "util/assert.hpp"

namespace nldl::obs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One worker-attributed chunk span, in per-worker emission order. Per
/// worker both the transfer and the compute list are time-ordered (FIFO
/// link queues and cpu serialization both finalize in order), so gating
/// edges are found by binary search on the end time.
struct ChunkEvt {
  double start = 0.0;
  double end = 0.0;
  std::size_t job = kNoIndex;
};

struct WorkerLists {
  std::size_t worker = kNoIndex;  // the index the spans carry
  std::vector<ChunkEvt> transfers;
  std::vector<ChunkEvt> computes;
};

/// A node of the backward causal walk: chunk `index` of the transfer or
/// compute list at position `slot` among the span-carrying workers.
struct Node {
  bool is_transfer = false;
  std::size_t slot = 0;
  std::size_t index = 0;
};

/// Last index in `list` whose end matches `t` within `tol`, with a start
/// strictly before `t` (zero-length nodes cannot gate anything and would
/// let the walk cycle); kNoIndex when none. `limit` bounds the searched
/// prefix (exclusive); pass list.size() for "anywhere".
std::size_t last_ending_at(const std::vector<ChunkEvt>& list,
                           std::size_t limit, double t, double tol) {
  const double lo = t - tol;
  const double hi = t + tol;
  const auto begin = list.begin();
  const auto end = begin + static_cast<std::ptrdiff_t>(limit);
  auto it = std::upper_bound(begin, end, hi,
                             [](double value, const ChunkEvt& evt) {
                               return value < evt.end;
                             });
  while (it != begin) {
    --it;
    if (it->end < lo) break;
    if (it->start < t) {
      return static_cast<std::size_t>(it - begin);
    }
  }
  return kNoIndex;
}

/// One entry of a per-job index table. A table is sorted by job id,
/// stably, so one job's entries keep their emission order, and is
/// searched by binary search.
template <typename T>
struct Keyed {
  std::size_t job = kNoIndex;
  T value{};
};

template <typename T>
void sort_by_job(std::vector<Keyed<T>>& table) {
  std::ranges::stable_sort(table, std::less<>{}, &Keyed<T>::job);
}

/// The entries of `job` in a table sorted by sort_by_job, in emission
/// order.
template <typename T>
std::span<const Keyed<T>> entries_of(const std::vector<Keyed<T>>& table,
                                     std::size_t job) {
  const auto range =
      std::ranges::equal_range(table, job, std::less<>{}, &Keyed<T>::job);
  return {range.begin(), range.end()};
}

/// Merge (possibly overlapping) intervals in place, ascending.
void merge_intervals(std::vector<std::pair<double, double>>& intervals) {
  if (intervals.empty()) return;
  std::sort(intervals.begin(), intervals.end());
  std::size_t out = 0;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].first <= intervals[out].second) {
      intervals[out].second =
          std::max(intervals[out].second, intervals[i].second);
    } else {
      intervals[++out] = intervals[i];
    }
  }
  intervals.resize(out + 1);
}

}  // namespace

const char* to_string(BlameKind kind) {
  switch (kind) {
    case BlameKind::kWait:
      return "wait";
    case BlameKind::kComm:
      return "comm";
    case BlameKind::kCompute:
      return "compute";
    case BlameKind::kRestart:
      return "restart";
    case BlameKind::kStall:
      return "stall";
  }
  return "unknown";
}

BlameKind JobBlame::dominant() const noexcept {
  BlameKind best = BlameKind::kWait;
  double best_value = wait;
  const auto consider = [&](BlameKind kind, double value) {
    if (value > best_value) {
      best = kind;
      best_value = value;
    }
  };
  consider(BlameKind::kComm, comm);
  consider(BlameKind::kCompute, compute);
  consider(BlameKind::kRestart, restart);
  consider(BlameKind::kStall, stall);
  return best;
}

CriticalPath::CriticalPath(const std::vector<TraceEvent>& events,
                           double match_tolerance) {
  NLDL_REQUIRE(match_tolerance >= 0.0 && std::isfinite(match_tolerance),
               "match tolerance must be finite and >= 0");

  // ---- index the stream -------------------------------------------------
  // Jobs (kJob spans), arrivals, verdicts, restart and installment spans
  // per job go into flat tables sorted by job id (stably: a job's entries
  // keep emission order) and searched by binary search. Only a kJob span
  // makes a job: a rejected job leaves a kArrival and a verdict but is
  // never served, so it has no path to blame.
  std::vector<JobBlame>& jobs = jobs_;
  std::vector<Keyed<const TraceEvent*>> arrivals;  // kArrival (preferred)
  std::vector<Keyed<double>> verdict_times;        // admit/degrade fallback
  std::vector<Keyed<std::pair<double, double>>> restarts;
  std::vector<ChunkEvt> installments;  // keyed by their own job field
  // Chunk lists only for the workers that carry spans, in ascending
  // worker index: a worker without spans gates nothing, so leaving it out
  // changes no search, and any index below 2^53 costs one list. (Keyed by
  // worker, this map holds one node per worker, not per job.)
  std::map<std::size_t, WorkerLists> by_worker;
  for (const TraceEvent& event : events) {
    switch (event.kind) {
      case EventKind::kJob: {
        JobBlame blame;
        blame.job = event.job;
        blame.tenant = event.tenant;
        blame.dispatch = event.start;
        blame.finish = event.end;
        jobs.push_back(std::move(blame));
        break;
      }
      case EventKind::kArrival:
        arrivals.push_back({event.job, &event});
        break;
      case EventKind::kAdmit:
      case EventKind::kDegrade:
        verdict_times.push_back({event.job, event.start});
        break;
      case EventKind::kRestart:
        restarts.push_back({event.job, {event.start, event.end}});
        break;
      case EventKind::kInstallment:
        installments.push_back({event.start, event.end, event.job});
        break;
      case EventKind::kTransfer:
        if (event.worker != kNoIndex) {
          by_worker[event.worker].transfers.push_back(
              {event.start, event.end, event.job});
        }
        break;
      case EventKind::kCompute:
        if (event.worker != kNoIndex) {
          by_worker[event.worker].computes.push_back(
              {event.start, event.end, event.job});
        }
        break;
      default:
        break;
    }
  }
  // A job's last kJob span describes it (later spans overwrite earlier
  // ones), its last kArrival gives its arrival and its first verdict the
  // fallback.
  std::ranges::stable_sort(jobs, std::less<>{}, &JobBlame::job);
  {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (i + 1 < jobs.size() && jobs[i + 1].job == jobs[i].job) continue;
      if (kept != i) jobs[kept] = std::move(jobs[i]);
      ++kept;
    }
    jobs.resize(kept);
  }
  sort_by_job(arrivals);
  sort_by_job(verdict_times);
  sort_by_job(restarts);
  std::ranges::stable_sort(installments, std::less<>{}, &ChunkEvt::job);
  // Each job's installments by start, sorted as the job's own list in
  // emission order would sort.
  for (auto first = installments.begin(); first != installments.end();) {
    const auto last = std::find_if(first, installments.end(),
                                   [job = first->job](const ChunkEvt& evt) {
                                     return evt.job != job;
                                   });
    std::sort(first, last, [](const ChunkEvt& a, const ChunkEvt& b) {
      return a.start < b.start;
    });
    first = last;
  }
  std::vector<WorkerLists> lists;
  lists.reserve(by_worker.size());
  for (auto& [worker, chunks] : by_worker) {
    chunks.worker = worker;
    lists.push_back(std::move(chunks));
  }
  const std::size_t slots = lists.size();
  // Per-job compute refs (slot, index), for gating-span selection.
  std::vector<Keyed<Node>> job_computes;
  for (std::size_t w = 0; w < slots; ++w) {
    for (std::size_t i = 0; i < lists[w].computes.size(); ++i) {
      job_computes.push_back({lists[w].computes[i].job, {false, w, i}});
    }
  }
  sort_by_job(job_computes);
  std::vector<std::pair<double, double>> rework;  // one job's restarts

  const auto tol_at = [match_tolerance](double t) {
    return match_tolerance * std::max(1.0, std::fabs(t));
  };

  // ---- walk every served job's causal chain backwards --------------------
  for (JobBlame& blame : jobs) {
    const std::size_t id = blame.job;
    if (const auto arrival = entries_of(arrivals, id); !arrival.empty()) {
      blame.arrival = arrival.back().value->start;
      blame.queue_depth = arrival.back().value->value;
    } else {
      const auto verdict = entries_of(verdict_times, id);
      blame.arrival =
          !verdict.empty() ? verdict.front().value : blame.dispatch;
    }

    const double dispatch = blame.dispatch;
    const double finish = blame.finish;
    std::vector<PathSegment> reversed;  // collected finish -> dispatch

    const auto push_segment = [&](BlameKind kind, double start, double end,
                                  std::size_t worker, std::size_t via) {
      start = std::max(start, dispatch);
      if (end <= start) return;
      reversed.push_back({kind, start, end, worker, via});
    };

    // Gating span: the job's own compute span ending at its finish (any
    // comm model, both servers); qos at concurrency 1 has no worker spans,
    // so fall back to the job's installment timeline; a stream with
    // neither gets one honest stall segment.
    Node node;
    bool have_node = false;
    {
      double best_start = -kInf;
      for (const Keyed<Node>& entry : entries_of(job_computes, id)) {
        const Node& ref = entry.value;
        const ChunkEvt& evt = lists[ref.slot].computes[ref.index];
        if (std::fabs(evt.end - finish) <= tol_at(finish) &&
            evt.start > best_start) {
          best_start = evt.start;
          node = ref;
          have_node = true;
        }
      }
    }

    double t = finish;
    if (have_node) {
      // Worker-span walk. Termination: every edge requires the
      // predecessor to START strictly before `t`, so `t` strictly
      // decreases each iteration; the step cap is defensive only.
      std::size_t steps = 0;
      std::size_t max_steps = 64;
      for (std::size_t w = 0; w < slots; ++w) {
        max_steps += 2 * (lists[w].transfers.size() + lists[w].computes.size());
      }
      while (t > dispatch && steps++ < max_steps) {
        const std::vector<ChunkEvt>& own = node.is_transfer
                                               ? lists[node.slot].transfers
                                               : lists[node.slot].computes;
        const ChunkEvt& evt = own[node.index];
        const BlameKind kind =
            evt.job == id
                ? (node.is_transfer ? BlameKind::kComm : BlameKind::kCompute)
                : BlameKind::kStall;
        push_segment(kind, evt.start, t, lists[node.slot].worker, evt.job);
        t = std::max(evt.start, dispatch);
        if (evt.start <= dispatch) break;

        const double tol = tol_at(t);
        if (!node.is_transfer) {
          // compute_start = max(comm_end, cpu_free): gated by this
          // chunk's own transfer, else by the worker's previous compute.
          const std::vector<ChunkEvt>& transfers =
              lists[node.slot].transfers;
          if (node.index < transfers.size() &&
              std::fabs(transfers[node.index].end - t) <= tol &&
              transfers[node.index].start < t) {
            node.is_transfer = true;
            continue;
          }
          const std::size_t prev = last_ending_at(
              lists[node.slot].computes, node.index, t, tol);
          if (prev != kNoIndex) {
            node.index = prev;
            continue;
          }
        } else {
          // A transfer starts at max(release, FIFO predecessor's end) —
          // or, under one-port / a bounded-multiport concurrency cap,
          // when another worker's transfer frees the master port/slot.
          const std::size_t prev = last_ending_at(
              lists[node.slot].transfers, node.index, t, tol);
          if (prev != kNoIndex) {
            node.index = prev;
            continue;
          }
          bool found = false;
          for (std::size_t w = 0; w < slots && !found; ++w) {
            if (w == node.slot) continue;
            const std::size_t other = last_ending_at(
                lists[w].transfers, lists[w].transfers.size(), t, tol);
            if (other != kNoIndex) {
              node.slot = w;
              node.index = other;
              found = true;
            }
          }
          if (found) continue;
        }
        // No gating event: the span started at its release barrier
        // (dispatch, modulo the period clock's shift noise).
        break;
      }
      push_segment(BlameKind::kStall, dispatch, t, kNoIndex, kNoIndex);
    } else if (const auto spans = std::ranges::equal_range(
                   installments, id, std::less<>{}, &ChunkEvt::job);
               !spans.empty()) {
      // Serial-qos granularity: the path is the job's own installment
      // spans; the gaps between them are time the processor served other
      // jobs. comm is folded into the solver-timed installments, so the
      // comm bucket is honestly zero here.
      for (std::size_t i = spans.size(); i-- > 0;) {
        if (spans[i].start >= t) continue;
        push_segment(BlameKind::kCompute, spans[i].start, std::min(t, spans[i].end),
                     kNoIndex, id);
        push_segment(BlameKind::kStall,
                     i > 0 ? spans[i - 1].end : dispatch, spans[i].start,
                     kNoIndex, kNoIndex);
        t = i > 0 ? spans[i - 1].end : dispatch;
      }
      push_segment(BlameKind::kStall, dispatch, t, kNoIndex, kNoIndex);
    } else {
      push_segment(BlameKind::kStall, dispatch, finish, kNoIndex, kNoIndex);
    }

    std::reverse(reversed.begin(), reversed.end());
    blame.path = std::move(reversed);

    // Re-bill the job's own compute path time that overlaps its restart
    // spans: split the segments at the restart boundaries (exact interval
    // arithmetic — no subtraction), so re-work is a bucket of its own.
    if (const auto entries = entries_of(restarts, id); !entries.empty()) {
      rework.clear();
      for (const auto& entry : entries) rework.push_back(entry.value);
      merge_intervals(rework);
      std::vector<PathSegment> split;
      split.reserve(blame.path.size());
      for (const PathSegment& segment : blame.path) {
        if (segment.kind != BlameKind::kCompute || segment.via_job != id) {
          split.push_back(segment);
          continue;
        }
        double cursor = segment.start;
        for (const auto& [lo, hi] : rework) {
          if (hi <= segment.start) continue;
          if (lo >= segment.end) break;
          const double a = std::max(lo, cursor);
          const double b = std::min(hi, segment.end);
          if (b <= a) continue;
          if (a > cursor) {
            split.push_back({BlameKind::kCompute, cursor, a, segment.worker,
                             segment.via_job});
          }
          split.push_back(
              {BlameKind::kRestart, a, b, segment.worker, segment.via_job});
          cursor = b;
        }
        if (cursor < segment.end) {
          split.push_back({BlameKind::kCompute, cursor, segment.end,
                           segment.worker, segment.via_job});
        }
      }
      blame.path = std::move(split);
    }

    // ---- close the decomposition bit-exactly ----------------------------
    // Sum the own-span buckets along the path (time order, fixed fl
    // order), then construct stall as the remainder of the canonical sum
    // and nudge it by ulps until total() reproduces the observed latency
    // EXACTLY. fl(base + stall) is monotone in stall and stall's ulp at
    // the solution is no larger than latency's, so the loop converges in
    // a handful of steps for any input.
    blame.wait = blame.dispatch - blame.arrival;
    blame.comm = 0.0;
    blame.compute = 0.0;
    blame.restart = 0.0;
    for (const PathSegment& segment : blame.path) {
      const double length = segment.end - segment.start;
      switch (segment.kind) {
        case BlameKind::kComm:
          blame.comm += length;
          break;
        case BlameKind::kCompute:
          blame.compute += length;
          break;
        case BlameKind::kRestart:
          blame.restart += length;
          break;
        default:
          break;
      }
    }
    blame.latency = blame.finish - blame.arrival;
    const double base =
        ((blame.wait + blame.comm) + blame.compute) + blame.restart;
    blame.stall = blame.latency - base;
    for (int step = 0; step < 128 && blame.total() != blame.latency; ++step) {
      blame.stall = std::nextafter(
          blame.stall, blame.total() < blame.latency ? kInf : -kInf);
    }
    NLDL_ASSERT(blame.total() == blame.latency,
                "blame components failed to close on the observed latency");
  }
}

const JobBlame* CriticalPath::find(std::size_t job) const {
  const auto it = std::lower_bound(
      jobs_.begin(), jobs_.end(), job,
      [](const JobBlame& blame, std::size_t id) { return blame.job < id; });
  if (it == jobs_.end() || it->job != job) return nullptr;
  return &*it;
}

CriticalPath::Totals CriticalPath::totals() const {
  Totals totals;
  totals.jobs = jobs_.size();
  for (const JobBlame& blame : jobs_) {
    totals.wait += blame.wait;
    totals.comm += blame.comm;
    totals.compute += blame.compute;
    totals.restart += blame.restart;
    totals.stall += blame.stall;
    totals.latency += blame.latency;
  }
  return totals;
}

std::string render_blame(const CriticalPath& analysis, std::size_t top_k,
                         const std::string& label) {
  const std::vector<JobBlame>& jobs = analysis.jobs();
  char line[200];
  std::string out;
  std::snprintf(line, sizeof(line),
                "critical-path blame%s%s: %zu jobs analyzed\n",
                label.empty() ? "" : " — ", label.c_str(), jobs.size());
  out += line;
  if (jobs.empty()) return out;

  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&jobs](std::size_t a, std::size_t b) {
    if (jobs[a].latency != jobs[b].latency) {
      return jobs[a].latency > jobs[b].latency;
    }
    return jobs[a].job < jobs[b].job;
  });
  if (order.size() > top_k) order.resize(top_k);

  std::snprintf(line, sizeof(line),
                "  %6s %6s %5s %10s %10s %10s %10s %10s %10s  %s\n", "job",
                "tenant", "queue", "latency", "wait", "comm", "compute",
                "restart", "stall", "cause");
  out += line;
  for (const std::size_t i : order) {
    const JobBlame& blame = jobs[i];
    char tenant[24];
    if (blame.tenant == kNoIndex) {
      std::snprintf(tenant, sizeof(tenant), "-");
    } else {
      std::snprintf(tenant, sizeof(tenant), "%zu", blame.tenant);
    }
    std::snprintf(line, sizeof(line),
                  "  %6zu %6s %5.0f %10.3f %10.3f %10.3f %10.3f %10.3f "
                  "%10.3f  %s\n",
                  blame.job, tenant, blame.queue_depth, blame.latency,
                  blame.wait, blame.comm, blame.compute, blame.restart,
                  blame.stall, to_string(blame.dominant()));
    out += line;
  }

  const CriticalPath::Totals totals = analysis.totals();
  const double pct =
      totals.latency > 0.0 ? 100.0 / totals.latency : 0.0;
  std::snprintf(line, sizeof(line),
                "  aggregate: wait %.1f%% | comm %.1f%% | compute %.1f%% | "
                "restart %.1f%% | stall %.1f%% of %.4g job-seconds\n",
                totals.wait * pct, totals.comm * pct, totals.compute * pct,
                totals.restart * pct, totals.stall * pct, totals.latency);
  out += line;
  return out;
}

}  // namespace nldl::obs
