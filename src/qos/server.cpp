#include "qos/server.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "dlt/nonlinear_dlt.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/multiplex.hpp"
#include "util/assert.hpp"

namespace nldl::qos {

namespace {
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr double kNever = std::numeric_limits<double>::infinity();

/// Record one event attributed to `job` (instant when start == end).
void emit(obs::TraceSink* sink, obs::EventKind kind, double start, double end,
          const online::Job& job, double size, double value) {
  obs::TraceEvent event;
  event.kind = kind;
  event.start = start;
  event.end = end;
  event.job = job.id;
  event.tenant = job.tenant;
  event.alpha = job.alpha;
  event.size = size;
  event.value = value;
  sink->record(event);
}

/// The admission verdict at an arrival, as a trace instant. `value` is
/// the predicted service, `size` the load actually accepted.
void emit_verdict(obs::TraceSink* sink, const online::Job& job,
                  const AdmissionDecision& decision) {
  const obs::EventKind verdict = !decision.admitted
                                     ? obs::EventKind::kReject
                                 : decision.degraded
                                     ? obs::EventKind::kDegrade
                                     : obs::EventKind::kAdmit;
  emit(sink, verdict, job.arrival, job.arrival, job, decision.served_load,
       decision.predicted_service);
}
}  // namespace

Server::Server(const platform::Platform& platform, ServerOptions options)
    : platform_(platform),
      options_(options),
      model_(make_model(options.service)),
      solver_(platform, *model_, options.service),
      admission_(solver_, options.admission) {
  NLDL_REQUIRE(options.concurrency >= 1,
               "qos server concurrency must be >= 1");
}

std::vector<JobRecord> Server::run(const std::vector<online::Job>& jobs,
                                   Policy& policy,
                                   obs::MetricsRegistry* metrics) const {
  online::validate_stream(jobs);
  std::size_t tenants = 1;
  for (const online::Job& job : jobs) {
    NLDL_REQUIRE(job.deadline > job.arrival,
                 "deadlines must lie strictly after the arrival");
    tenants = std::max(tenants, job.tenant + 1);
  }
  policy.reset(tenants);

  std::vector<JobRecord> records(jobs.size());
  const std::size_t concurrency =
      std::clamp<std::size_t>(options_.concurrency, 1, platform_.size());
  if (metrics != nullptr) {
    // First-touch order fixes the registry (and its JSON) layout up
    // front, independent of which outcome happens first in the stream.
    (void)metrics->counter("qos.admitted");
    (void)metrics->counter("qos.degraded");
    (void)metrics->counter("qos.rejected");
    (void)metrics->counter("qos.deadline_misses");
    (void)metrics->counter("qos.preemptions");
    (void)metrics->gauge("qos.restart_time_s");
    if (concurrency > 1) {
      (void)metrics->counter("replay.engine_events");
      (void)metrics->counter("replay.replays");
      (void)metrics->counter("replay.busy_periods");
    }
  }
  serve(jobs, policy, records, concurrency, metrics);

  // Whole-job spans, deadline misses, and outcome metrics.
  for (const JobRecord& record : records) {
    const bool miss = record.admitted && record.finish > record.job.deadline;
    if (options_.trace != nullptr && record.admitted) {
      emit(options_.trace, obs::EventKind::kJob, record.dispatch,
           record.finish, record.job, record.served_load,
           record.compute_time);
      if (miss) {
        emit(options_.trace, obs::EventKind::kDeadlineMiss, record.finish,
             record.finish, record.job, 0.0,
             record.finish - record.job.deadline);
      }
    }
    if (metrics != nullptr) {
      if (record.admitted) {
        ++metrics->counter("qos.admitted");
        if (record.degraded) ++metrics->counter("qos.degraded");
      } else {
        ++metrics->counter("qos.rejected");
      }
      if (miss) ++metrics->counter("qos.deadline_misses");
      metrics->counter("qos.preemptions") += record.preemptions;
      metrics->gauge("qos.restart_time_s") += record.restart_time;
    }
  }
  return records;
}

void Server::serve(const std::vector<online::Job>& jobs, Policy& policy,
                   std::vector<JobRecord>& records, std::size_t concurrency,
                   obs::MetricsRegistry* metrics) const {
  obs::TraceSink* const trace = options_.trace;
  // Only one step depends on k: where an installment's timeline comes
  // from. At k = 1 installments never overlap, so the plan's solver-timed
  // duration IS the served timeline; at k > 1 they contend on the shared
  // master and take their timelines from its replay.
  const bool shared = concurrency > 1;
  // Carve the platform into `concurrency` disjoint interleaved subsets
  // (worker i serves subset i mod k, like the online server's slots).
  const platform::Platform::Partition carve =
      platform_.interleaved_partition(concurrency);
  const std::vector<platform::Platform>& subsets = carve.subsets;
  const std::vector<std::vector<std::size_t>>& subset_workers =
      carve.workers;

  // Subset installment allocations, memoized per (subset, load, alpha):
  // a job's clean installment repeats every round, so each distinct
  // inflated/clean load solves once per subset it lands on while it stays
  // in the map. Like the solver's memo, the map holds at most
  // InstallmentSolver::kMemoEntries schedules: an insert past that clears
  // it first. A clear never drops a schedule in use, because
  // period.dispatch copies each returned schedule before the next lookup.
  std::map<std::tuple<std::size_t, double, double>,
           std::vector<sim::ChunkAssignment>>
      allocation_cache;
  const auto subset_schedule = [&](std::size_t s, double load,
                                   double alpha)
      -> const std::vector<sim::ChunkAssignment>& {
    const auto key = std::make_tuple(s, load, alpha);
    const auto it = allocation_cache.find(key);
    if (it != allocation_cache.end()) return it->second;
    const auto allocation = dlt::nonlinear_single_round_for(
        options_.service.comm, subsets[s], load, alpha);
    if (allocation_cache.size() == InstallmentSolver::kMemoEntries) {
      allocation_cache.clear();
    }
    return allocation_cache.emplace(key, allocation.to_schedule())
        .first->second;
  };

  std::vector<std::unique_ptr<ServicePlan>> plans(jobs.size());
  std::vector<std::size_t> ready;  // admitted, not done, not running
  std::vector<std::size_t> running(concurrency, kNone);
  std::vector<double> busy_until(concurrency, -kNever);
  std::vector<double> last_end(jobs.size(), -kNever);
  std::size_t next_arrival = 0;
  double now = 0.0;

  // Offer every job arriving by `now` to the admission controller.
  // Admitted jobs get a ServicePlan and join `ready`; rejected ones
  // finish on the spot.
  const auto admit_arrivals = [&]() {
    while (next_arrival < jobs.size() && jobs[next_arrival].arrival <= now) {
      const online::Job& job = jobs[next_arrival];
      JobRecord& record = records[job.id];
      record.job = job;
      if (trace != nullptr) {
        // Queue-position cause of the admission wait: jobs waiting to run.
        emit(trace, obs::EventKind::kArrival, job.arrival, job.arrival, job,
             job.load, static_cast<double>(ready.size()));
      }
      const AdmissionDecision decision = admission_.decide(job);
      record.admitted = decision.admitted;
      record.degraded = decision.degraded;
      record.served_load = decision.served_load;
      record.predicted_service = decision.predicted_service;
      if (trace != nullptr) emit_verdict(trace, job, decision);
      if (decision.admitted) {
        plans[job.id] =
            std::make_unique<ServicePlan>(solver_, job, decision.served_load);
        ready.push_back(job.id);
      } else {
        record.finish = job.arrival;  // turned away on the spot
      }
      ++next_arrival;
    }
  };

  // One sim::SharedMasterPeriod per busy period multiplexes every
  // subset's installments through a single engine run under the one
  // configured model (see sim/multiplex.hpp). Each INSTALLMENT is one
  // period owner; installment timelines settle once `now` passes them.
  // At k = 1 the period stays empty.
  const sim::Engine engine(platform_, {});
  sim::SharedMasterPeriod period(engine, *model_,
                                 {options_.incremental_replay});
  if (trace != nullptr) period.set_trace(trace);
  struct Installment {
    std::size_t job = 0;
    double start = 0.0;  ///< dispatch instant (absolute)
    double load = 0.0;   ///< dispatched load (restart-inflated on resume)
  };
  std::vector<Installment> installments;  ///< per period owner
  std::vector<std::size_t> subset_owner(concurrency, kNone);

  // Fold the drained period into the job records and drop its schedule.
  const auto flush_period = [&]() {
    for (std::size_t owner = 0; owner < installments.size(); ++owner) {
      JobRecord& record = records[installments[owner].job];
      record.service_time +=
          period.finish(owner) - installments[owner].start;
      record.compute_time += period.busy(owner);
      record.finish = std::max(record.finish, period.finish(owner));
      if (trace != nullptr) {
        emit(trace, obs::EventKind::kInstallment, installments[owner].start,
             period.finish(owner), record.job, installments[owner].load,
             0.0);
      }
    }
    if (metrics != nullptr && !installments.empty()) {
      ++metrics->counter("replay.busy_periods");
    }
    period.clear();
    installments.clear();
    std::fill(subset_owner.begin(), subset_owner.end(), kNone);
  };

  std::vector<Candidate> candidates;
  while (true) {
    admit_arrivals();

    // Free subsets whose installment has completed; unfinished jobs
    // return to the ready set (ascending id keeps picks deterministic),
    // finished ones take the plan's accounting and release it.
    for (std::size_t s = 0; s < concurrency; ++s) {
      if (running[s] == kNone || busy_until[s] > now) continue;
      const std::size_t id = running[s];
      last_end[id] = busy_until[s];
      running[s] = kNone;
      if (!plans[id]->done()) {
        ready.insert(
            std::lower_bound(ready.begin(), ready.end(), id), id);
        continue;
      }
      JobRecord& record = records[id];
      record.preemptions = plans[id]->preemptions();
      record.restart_time = plans[id]->restart_time();
      if (!shared) {
        record.finish = busy_until[s];
        record.compute_time = plans[id]->compute_time();
      }
      plans[id].reset();
    }

    // The gap rule, applied the moment a job goes cold (not lazily at
    // dispatch): a started ready job whose previous installment did not
    // end at this very instant pays the restart surcharge on resume, and
    // flagging it NOW makes the policies price the surcharge into
    // remaining_duration() before ranking. A job the policy passes over
    // at a boundary is flagged at the next event. pause() is idempotent,
    // so re-flagging on later boundaries charges nothing twice.
    for (const std::size_t id : ready) {
      if (plans[id]->started() && last_end[id] < now) {
        const bool flags = !plans[id]->restart_pending();
        plans[id]->pause();
        if (trace != nullptr && flags) {
          emit(trace, obs::EventKind::kPreempt, now, now, records[id].job,
               0.0,
               plans[id]->next_duration() - plans[id]->clean_duration());
        }
      }
    }

    // Platform drained: every installment of the period has settled.
    bool any_running = false;
    for (const std::size_t id : running) {
      if (id != kNone) any_running = true;
    }
    if (!any_running && !period.empty()) flush_period();

    // Fill idle subsets in ascending subset order. One replay after the
    // fill pass refreshes every estimate: the pass itself only reads the
    // plans and running[], never the replay output.
    bool dispatched = false;
    for (std::size_t s = 0; s < concurrency && !ready.empty(); ++s) {
      if (running[s] != kNone) continue;
      candidates.clear();
      for (const std::size_t id : ready) {
        Candidate candidate;
        candidate.job = &records[id].job;
        candidate.remaining_duration = plans[id]->remaining_duration();
        candidate.total_duration = plans[id]->total_duration();
        candidate.started = plans[id]->started();
        // A job that can resume seamlessly at this very boundary is the
        // "active" one for non-preemptive policies.
        candidate.active = plans[id]->started() && last_end[id] == now;  // nldl-lint: allow(double-eq): exact event-boundary time copied verbatim
        candidates.push_back(candidate);
      }
      const std::size_t k = policy.pick(candidates, now);
      NLDL_ASSERT(k < ready.size(), "policy picked outside the ready set");
      const std::size_t id = ready[k];
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(k));

      JobRecord& record = records[id];
      if (!plans[id]->started()) record.dispatch = now;
      // Any pending restart surcharge was flagged by the gap-rule pass
      // above; next_load()/next_duration() include it.
      const double load = plans[id]->next_load();
      const double predicted = plans[id]->next_duration();
      if (trace != nullptr && plans[id]->restart_pending()) {
        emit(trace, obs::EventKind::kRestart, now,
             now + predicted - plans[id]->clean_duration(), record.job, 0.0,
             0.0);
      }
      plans[id]->advance();
      policy.on_service(candidates[k], predicted);
      running[s] = id;

      if (!shared) {
        // Alone on the platform: the installment ends exactly when the
        // solver predicted, so it settles at dispatch.
        busy_until[s] = now + predicted;
        record.service_time += predicted;
        if (trace != nullptr) {
          emit(trace, obs::EventKind::kInstallment, now, busy_until[s],
               record.job, load, 0.0);
        }
        continue;
      }
      subset_owner[s] = period.dispatch(
          now, record.job.alpha, subset_schedule(s, load, record.job.alpha),
          subset_workers[s], record.job.id, record.job.tenant);
      installments.push_back({id, now, load});
      NLDL_ASSERT(subset_owner[s] + 1 == installments.size(),
                  "period owners and installments fell out of step");
      dispatched = true;
    }
    if (dispatched) {
      period.replay();
      for (std::size_t s = 0; s < concurrency; ++s) {
        if (running[s] != kNone) {
          busy_until[s] = period.finish(subset_owner[s]);
        }
      }
    }

    // An installment too short to move the clock (now + duration == now)
    // ends at `now`: the loop comes round at the same instant to free it.
    double next_event = kNever;
    for (std::size_t s = 0; s < concurrency; ++s) {
      if (running[s] != kNone) {
        next_event = std::min(next_event, busy_until[s]);
      }
    }
    if (next_arrival < jobs.size()) {
      next_event = std::min(next_event, jobs[next_arrival].arrival);
    }
    if (next_event == kNever) break;  // nldl-lint: allow(double-eq): kNever sentinel compare
    now = next_event;
  }

  if (metrics != nullptr && shared) {
    metrics->counter("replay.engine_events") += period.events();
    metrics->counter("replay.replays") += period.replays();
  }
  flush_period();
  NLDL_ASSERT(ready.empty() && next_arrival == jobs.size() &&
                  std::all_of(plans.begin(), plans.end(),
                              [](const auto& plan) { return plan == nullptr; }),
              "qos server stopped with unserved jobs");
}

}  // namespace nldl::qos
