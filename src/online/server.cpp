#include "online/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "dlt/nonlinear_dlt.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/multiplex.hpp"
#include "util/assert.hpp"

namespace nldl::online {

namespace {
constexpr double kNever = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);
}  // namespace

void Server::emit_arrival(const Job& job, std::size_t ahead) const {
  if (options_.trace == nullptr) return;
  obs::TraceEvent event;
  event.kind = obs::EventKind::kArrival;
  event.start = job.arrival;
  event.end = job.arrival;
  event.job = job.id;
  event.tenant = job.tenant;
  event.size = job.load;
  event.alpha = job.alpha;
  event.value = static_cast<double>(ahead);
  options_.trace->record(event);
}

std::string to_string(MasterMode mode) {
  switch (mode) {
    case MasterMode::kPrivatePort:
      return "private-port";
    case MasterMode::kSharedMaster:
      return "shared-master";
  }
  NLDL_ASSERT(false, "unknown MasterMode");
}

Server::Server(const platform::Platform& platform, ServerOptions options)
    : platform_(platform),
      options_(options),
      model_(sim::make_comm_model(options.comm, options.capacity,
                                  options.max_concurrent)) {}

std::vector<sim::ChunkAssignment> Server::job_schedule(
    const platform::Platform& slot_platform, const Job& job) const {
  return dlt::nonlinear_single_round_for(options_.comm, slot_platform,
                                         job.load, job.alpha)
      .to_schedule();
}

double Server::isolated_makespan(const Job& job) const {
  const sim::Engine engine(platform_, {job.alpha});
  sim::EngineRun run(engine, *model_);
  for (const sim::ChunkAssignment& chunk : job_schedule(platform_, job)) {
    (void)run.append(chunk);
  }
  run.drain();
  return run.makespan();
}

std::vector<JobStats> Server::run(const std::vector<Job>& jobs,
                                  const Scheduler& scheduler,
                                  obs::MetricsRegistry* metrics) const {
  validate_stream(jobs);

  // Carve the platform into the scheduler's slots (interleaved so a
  // sorted or two-class platform splits evenly); the carve also maps
  // slot-local worker indices back to the platform the periods replay on.
  platform::Platform::Partition carve =
      platform_.interleaved_partition(scheduler.shares());
  const std::vector<platform::Platform>& slot_platforms = carve.subsets;
  const std::vector<std::vector<std::size_t>>& slot_workers = carve.workers;
  const std::size_t slots = slot_platforms.size();

  // Pre-register the replay counters so a snapshot has them (at zero) even
  // for streams that never open a busy period.
  if (metrics != nullptr) {
    (void)metrics->counter("replay.engine_events");
    (void)metrics->counter("replay.replays");
    (void)metrics->counter("replay.busy_periods");
  }

  std::vector<JobStats> stats(jobs.size());
  if (options_.record_isolated) {
    for (const Job& job : jobs) {
      stats[job.id].isolated_makespan = isolated_makespan(job);
    }
  }

  // Busy periods (sim::SharedMasterPeriod, see sim/multiplex.hpp) replay
  // every dispatched job's chunks under the one configured model, each
  // job one period owner. The master mode only decides how slots group
  // onto periods: one period holds every slot under kSharedMaster, so
  // concurrent slots contend for the master; kPrivatePort gives each
  // slot its own period, whose clock is period-relative — a slot's job
  // replays exactly as it would alone on that slot.
  const bool shared = options_.master == MasterMode::kSharedMaster;
  const std::size_t period_count = shared ? 1 : slots;
  const auto period_of = [shared](std::size_t s) -> std::size_t {
    return shared ? 0 : s;
  };
  const sim::Engine engine(platform_, {});
  std::vector<sim::SharedMasterPeriod> periods;
  periods.reserve(period_count);
  for (std::size_t p = 0; p < period_count; ++p) {
    periods.emplace_back(engine, *model_,
                         sim::SharedMasterOptions{options_.incremental_replay});
    if (options_.trace != nullptr) periods.back().set_trace(options_.trace);
  }
  // Job id of every owner, per period.
  std::vector<std::vector<std::size_t>> owner_job(period_count);

  std::vector<double> slot_busy_until(slots, -kNever);  // idle when <= now
  std::vector<std::size_t> slot_owner(slots, kNoJob);   // owner in its period
  std::vector<std::uint8_t> period_busy(period_count, 0);
  std::vector<std::uint8_t> period_dispatched(period_count, 0);
  // Waiting jobs by index into `jobs`, sorted by (rank, arrival): a freed
  // slot takes the head.
  struct Waiting {
    double rank = 0.0;
    std::size_t job = 0;
  };
  std::vector<Waiting> queue;
  std::size_t next_arrival = 0;
  double now = 0.0;

  // An owner's record only becomes final when its busy period drains, so
  // per-job finish/compute land in `stats` once per period (amortized
  // O(1) per job) instead of re-writing every owner after every replay
  // (O(period) per dispatch — the same quadratic the incremental replay
  // removes). Finish estimates only move later and the last replay of a
  // period simulates its complete schedule, so the flushed values are
  // exactly the per-replay values the historical loop wrote last.
  const auto flush_period = [&](std::size_t p) {
    sim::SharedMasterPeriod& period = periods[p];
    for (std::size_t owner = 0; owner < owner_job[p].size(); ++owner) {
      JobStats& record = stats[owner_job[p][owner]];
      record.finish = period.finish(owner);
      record.compute_time = period.busy(owner);
    }
    if (metrics != nullptr) ++metrics->counter("replay.busy_periods");
    period.clear();
    owner_job[p].clear();
    for (std::size_t s = 0; s < slots; ++s) {
      if (period_of(s) == p) slot_owner[s] = kNoJob;
    }
  };

  while (true) {
    // Admit every job that has arrived by `now`. Each is ranked once, on
    // the whole platform, and queued after every job of equal rank, which
    // arrived earlier because `jobs` is sorted.
    while (next_arrival < jobs.size() &&
           jobs[next_arrival].arrival <= now) {
      const Job& job = jobs[next_arrival];
      emit_arrival(job, queue.size());
      const double rank = scheduler.rank(job, platform_);
      NLDL_REQUIRE(!std::isnan(rank), "scheduler ranked a job NaN");
      const auto after = std::upper_bound(
          queue.begin(), queue.end(), rank,
          [](double r, const Waiting& waiting) { return r < waiting.rank; });
      queue.insert(after, {rank, next_arrival++});
    }

    // A period whose slots are all idle has drained: every record it
    // holds is final, so its schedule can be flushed. The next dispatch
    // re-anchors the period clock at its own instant.
    std::fill(period_busy.begin(), period_busy.end(), 0);
    for (std::size_t s = 0; s < slots; ++s) {
      if (slot_busy_until[s] > now) period_busy[period_of(s)] = 1;
    }
    for (std::size_t p = 0; p < period_count; ++p) {
      if (period_busy[p] == 0 && !periods[p].empty()) flush_period(p);
    }

    // Fill idle slots in ascending slot order. One replay per touched
    // period after the fill pass refreshes every estimate: the pass
    // itself only reads slot_busy_until of slots it has not dispatched
    // to, and those cannot flip busy (a settled finish <= now is
    // unaffected by chunks released at now).
    std::fill(period_dispatched.begin(), period_dispatched.end(), 0);
    for (std::size_t s = 0; s < slots && !queue.empty(); ++s) {
      if (slot_busy_until[s] > now) continue;
      const Job& job = jobs[queue.front().job];
      queue.erase(queue.begin());

      JobStats& record = stats[job.id];
      record.job = job;
      record.dispatch = now;
      record.slot = s;
      record.workers = slot_platforms[s].size();

      const std::size_t p = period_of(s);
      slot_owner[s] = periods[p].dispatch(now, job.alpha,
                                          job_schedule(slot_platforms[s], job),
                                          slot_workers[s], job.id, job.tenant);
      owner_job[p].push_back(job.id);
      period_dispatched[p] = 1;
    }
    bool dispatched = false;
    for (std::size_t p = 0; p < period_count; ++p) {
      if (period_dispatched[p] == 0) continue;
      periods[p].replay();
      dispatched = true;
    }
    if (dispatched) {
      // Only the active slots' finish estimates drive the event loop;
      // per-job records wait for the period flush.
      for (std::size_t s = 0; s < slots; ++s) {
        if (slot_owner[s] != kNoJob) {
          slot_busy_until[s] = periods[period_of(s)].finish(slot_owner[s]);
        }
      }
    }

    // Advance to the next event: the earliest busy-slot completion or the
    // next arrival, whichever comes first (completions before arrivals at
    // ties, so freed slots see the tying arrival in the same round).
    double next_event = kNever;
    for (const double until : slot_busy_until) {
      if (until > now) next_event = std::min(next_event, until);
    }
    if (next_arrival < jobs.size()) {
      next_event = std::min(next_event, jobs[next_arrival].arrival);
    }
    if (next_event == kNever) break;  // nldl-lint: allow(double-eq): kNever sentinel compare
    now = next_event;
  }

  // The loop exits with every slot idle; the final busy periods have not
  // seen the drain branch yet, so flush them here.
  if (metrics != nullptr) {
    for (const sim::SharedMasterPeriod& period : periods) {
      metrics->counter("replay.engine_events") += period.events();
      metrics->counter("replay.replays") += period.replays();
    }
  }
  for (std::size_t p = 0; p < period_count; ++p) {
    if (!periods[p].empty()) flush_period(p);
  }
  NLDL_ASSERT(queue.empty() && next_arrival == jobs.size(),
              "online server stopped with unserved jobs");

  // One kJob span per served job, in id order — the per-job track of the
  // exported timeline (chunk spans came from the periods, which own the
  // worker attribution).
  if (options_.trace != nullptr) {
    for (const JobStats& record : stats) {
      obs::TraceEvent event;
      event.kind = obs::EventKind::kJob;
      event.start = record.dispatch;
      event.end = record.finish;
      event.job = record.job.id;
      event.tenant = record.job.tenant;
      event.size = record.job.load;
      event.alpha = record.job.alpha;
      event.value = record.compute_time;
      options_.trace->record(event);
    }
  }
  return stats;
}

}  // namespace nldl::online
