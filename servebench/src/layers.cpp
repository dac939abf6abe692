#include "layers.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "dlt/nonlinear_dlt.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/validate.hpp"
#include "qos/admission.hpp"
#include "qos/plan.hpp"
#include "sim/comm_model.hpp"
#include "sim/engine.hpp"
#include "sim/multiplex.hpp"

namespace servebench {

namespace {

using nldl::obs::EventKind;
using nldl::obs::TraceEvent;
using nldl::online::Job;
using nldl::online::JobStats;
using nldl::qos::JobRecord;
using nldl::sim::ChunkAssignment;
using Installment = nldl::qos::InstallmentSolver::Installment;

constexpr double kNever = std::numeric_limits<double>::infinity();

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in output order. BENCHMARK.json lists the same
/// names; the benchmark's tests check that each is printed.
constexpr MetricSpec kLayerMetrics[] = {
    {"dlt.solves", "count"},
    {"dlt.solve_us.p50", "us"},
    {"dlt.solve_us.p99", "us"},
    {"dlt.iterations.mean", "count"},
    {"dlt.share", "ratio"},
    {"qos.solver.calls", "count"},
    {"qos.solver.distinct", "count"},
    {"qos.solver.hit_ratio", "ratio"},
    {"qos.subset.solves", "count"},
    {"qos.subset.hit_ratio", "ratio"},
    {"qos.solver.share", "ratio"},
    {"sim.replay.periods", "count"},
    {"sim.replay.replays", "count"},
    {"sim.replay.events", "count"},
    {"sim.replay.events_per_replay", "count"},
    {"sim.replay.dispatch_us.p50", "us"},
    {"sim.replay.replay_us.p50", "us"},
    {"sim.replay.replay_us.p99", "us"},
    {"sim.replay.clear_us.p50", "us"},
    {"sim.replay.share", "ratio"},
    {"sim.engine.runs", "count"},
    {"sim.engine.events", "count"},
    {"sim.engine.events_per_s", "events/s"},
    {"sim.engine.share", "ratio"},
    {"qos.admission.decisions", "count"},
    {"qos.admission.decide_us.p50", "us"},
    {"qos.admission.decide_us.p99", "us"},
    {"qos.admission.degraded", "count"},
    {"qos.admission.rejected", "count"},
    {"qos.admission.share", "ratio"},
    {"obs.events", "count"},
    {"obs.trace_overhead_s", "s"},
    {"obs.record_ns_per_event", "ns"},
    {"obs.critical_path_s", "s"},
    {"obs.attribution_s", "s"},
    {"obs.export_s", "s"},
    {"obs.export_mib", "MiB"},
    {"loop.share", "ratio"},
};

using Values = std::map<std::string, double>;

struct PassOutcome {
  Values values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double us(double seconds) { return seconds * 1e6; }

/// The parent span's duration: the mean of the server run timed before
/// the rebuild and a second run timed after it, so a host slowdown during
/// the pass moves the parent and the layer spans alike.
template <typename Run>
double parent_seconds(double before, const Run& run) {
  const Clock::time_point t0 = Clock::now();
  run();
  return 0.5 * (before + seconds_between(t0, Clock::now()));
}

/// A sim::SharedMasterPeriod re-driven with one span per public call.
class ReplayProbe {
 public:
  ReplayProbe(SpanLog& log, const nldl::sim::CommModel& model,
              bool incremental)
      : log_(log),
        engine_(bench_platform(), {}),
        period_(engine_, model, {incremental}),
        dispatch_(log.intern("sim.replay.dispatch")),
        replay_(log.intern("sim.replay.replay")),
        clear_(log.intern("sim.replay.clear")) {}

  void dispatch(double now, double alpha,
                const std::vector<ChunkAssignment>& chunks,
                const std::vector<std::size_t>& workers, std::size_t job,
                std::size_t tenant) {
    const ScopedSpan span(log_, dispatch_);
    (void)period_.dispatch(now, alpha, chunks, workers, job, tenant);
  }
  void replay() {
    const ScopedSpan span(log_, replay_);
    period_.replay();
  }
  void clear() {
    ++periods_;
    const ScopedSpan span(log_, clear_);
    period_.clear();
  }

  [[nodiscard]] const nldl::sim::SharedMasterPeriod& period() const {
    return period_;
  }

  /// Rebuilt counters that differ from the server's registry.
  [[nodiscard]] std::uint64_t counter_mismatches(
      const nldl::obs::MetricsRegistry& registry) const {
    return static_cast<std::uint64_t>(
        (registry.counter_value("replay.busy_periods") != periods_) +
        (registry.counter_value("replay.replays") != period_.replays()) +
        (registry.counter_value("replay.engine_events") != period_.events()));
  }

  void report(Values& values, double run_seconds) const {
    values["sim.replay.periods"] = static_cast<double>(periods_);
    values["sim.replay.replays"] = static_cast<double>(period_.replays());
    values["sim.replay.events"] = static_cast<double>(period_.events());
    values["sim.replay.events_per_replay"] =
        ratio(static_cast<double>(period_.events()),
              static_cast<double>(period_.replays()));
    values["sim.replay.dispatch_us.p50"] = us(median(log_.durations(dispatch_)));
    values["sim.replay.replay_us.p50"] = us(median(log_.durations(replay_)));
    values["sim.replay.replay_us.p99"] =
        us(quantile(log_.durations(replay_), 0.99));
    values["sim.replay.clear_us.p50"] = us(median(log_.durations(clear_)));
    values["sim.replay.share"] =
        ratio(log_.self_seconds(dispatch_) + log_.self_seconds(replay_) +
                  log_.self_seconds(clear_),
              run_seconds);
  }

 private:
  SpanLog& log_;
  nldl::sim::Engine engine_;
  nldl::sim::SharedMasterPeriod period_;
  std::uint16_t dispatch_;
  std::uint16_t replay_;
  std::uint16_t clear_;
  std::uint64_t periods_ = 0;
};

/// What the rebuilt layers leave of the parent run: the server's own
/// scheduling, policy ranking and queues.
double loop_share(Values& values) {
  double share = 1.0;
  for (const char* layer : {"dlt.share", "qos.solver.share", "sim.replay.share",
                            "sim.engine.share", "qos.admission.share"}) {
    share -= values[layer];
  }
  return share;
}

void report_dlt(Values& values, const SpanLog& log, std::uint16_t dlt,
                std::uint64_t iterations, double run_seconds) {
  const std::vector<double> solves = log.durations(dlt);
  values["dlt.solves"] = static_cast<double>(solves.size());
  values["dlt.solve_us.p50"] = us(median(solves));
  values["dlt.solve_us.p99"] = us(quantile(solves, 0.99));
  values["dlt.iterations.mean"] = ratio(static_cast<double>(iterations),
                                        static_cast<double>(solves.size()));
  values["dlt.share"] = ratio(log.self_seconds(dlt), run_seconds);
}

// ---- online_soak -----------------------------------------------------------

// Rebuild: every JobStats is one dispatch into the shared period, made at
// record.dispatch on record.slot's worker subset. Dispatches at one
// instant form one fill pass (ascending slot), followed by one replay. A
// busy period ends when the next dispatch comes at or after the latest
// finish of the period's jobs (the server flushes once every slot has
// drained).
PassOutcome online_pass(const std::vector<Job>& jobs) {
  PassOutcome out;
  out.attempted = jobs.size();
  nldl::obs::MetricsRegistry registry;
  const Clock::time_point t0 = Clock::now();
  const std::vector<JobStats> stats = run_online(jobs, &registry);
  double run_seconds = seconds_between(t0, Clock::now());
  out.failed += failed_records(jobs, stats);
  if (stats.size() != jobs.size()) return out;

  SpanLog log;
  const std::uint16_t dlt = log.intern("dlt.solve");
  const nldl::online::ServerOptions options = online_options();
  const auto model = nldl::sim::make_comm_model(
      options.comm, options.capacity, options.max_concurrent);
  const auto carve = bench_platform().interleaved_partition(kFairShareSlots);
  ReplayProbe replay(log, *model, options.incremental_replay);

  std::vector<std::size_t> order(stats.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (stats[a].dispatch != stats[b].dispatch) {
                       return stats[a].dispatch < stats[b].dispatch;
                     }
                     return stats[a].slot < stats[b].slot;
                   });

  std::vector<std::size_t> owners;  // job id per period owner
  double latest = -kNever;
  std::uint64_t iterations = 0;
  const auto flush = [&]() {
    for (std::size_t owner = 0; owner < owners.size(); ++owner) {
      const JobStats& record = stats[owners[owner]];
      if (!same_bits(replay.period().finish(owner), record.finish) ||
          !same_bits(replay.period().busy(owner), record.compute_time)) {
        ++out.failed;
      }
    }
    replay.clear();
    owners.clear();
    latest = -kNever;
  };

  for (std::size_t i = 0; i < order.size();) {
    const double now = stats[order[i]].dispatch;
    if (!owners.empty() && now >= latest) flush();
    for (; i < order.size() && same_bits(stats[order[i]].dispatch, now); ++i) {
      const JobStats& record = stats[order[i]];
      if (record.slot >= carve.subsets.size()) {
        ++out.failed;
        continue;
      }
      std::vector<ChunkAssignment> schedule;
      {
        const ScopedSpan span(log, dlt);
        const auto allocation = nldl::dlt::nonlinear_single_round_for(
            options.comm, carve.subsets[record.slot], record.job.load,
            record.job.alpha);
        iterations += static_cast<std::uint64_t>(allocation.solver_iterations);
        schedule = allocation.to_schedule();
      }
      replay.dispatch(now, record.job.alpha, schedule,
                      carve.workers[record.slot], record.job.id,
                      record.job.tenant);
      owners.push_back(record.job.id);
      latest = std::max(latest, record.finish);
    }
    replay.replay();
  }
  if (!owners.empty()) flush();
  out.failed += replay.counter_mismatches(registry);
  run_seconds = parent_seconds(run_seconds, [&] { (void)run_online(jobs); });

  report_dlt(out.values, log, dlt, iterations, run_seconds);
  replay.report(out.values, run_seconds);
  out.values["loop.share"] = loop_share(out.values);
  return out;
}

// ---- qos workloads -----------------------------------------------------------

/// qos::InstallmentSolver re-driven with one span per call. On the first
/// call for a (load, alpha) key — a memo miss inside the solver — the
/// nested dlt solve and engine replay are made once more outside it, as
/// duplicate spans, and their output must match the solver's bit for bit.
class SolverProbe {
 public:
  SolverProbe(const nldl::qos::ServiceModel& service, SpanLog& log)
      : service_(service),
        model_(nldl::qos::make_model(service)),
        solver_(bench_platform(), *model_, service),
        log_(log),
        solver_span_(log.intern("qos.solver")),
        dlt_span_(log.intern("dlt.solve")),
        engine_span_(log.intern("sim.engine.run")) {}

  double predicted_service(double load, double alpha, std::uint32_t parent) {
    const double rounds = static_cast<double>(service_.plan.rounds);
    const bool miss = duplicate_on_miss(load / rounds, alpha, parent);
    double value = 0.0;
    {
      const ScopedSpan span(log_, solver_span_, parent);
      value = solver_.predicted_service(load, alpha);
    }
    ++calls_;
    if (miss && !same_bits(value, rounds * expected_.duration)) ++mismatches_;
    return value;
  }

  Installment solve(double load, double alpha,
                    std::uint32_t parent = Span::kRoot) {
    const bool miss = duplicate_on_miss(load, alpha, parent);
    Installment value;
    {
      const ScopedSpan span(log_, solver_span_, parent);
      value = solver_.solve(load, alpha);
    }
    ++calls_;
    if (miss && !(same_bits(value.duration, expected_.duration) &&
                  same_bits(value.busy, expected_.busy))) {
      ++mismatches_;
    }
    return value;
  }

  [[nodiscard]] std::uint64_t mismatches() const noexcept {
    return mismatches_;
  }

  void report(Values& values, double run_seconds) const {
    values["qos.solver.calls"] = static_cast<double>(calls_);
    values["qos.solver.distinct"] = static_cast<double>(seen_.size());
    values["qos.solver.hit_ratio"] =
        ratio(static_cast<double>(calls_ - seen_.size()),
              static_cast<double>(calls_));
    values["qos.solver.share"] = ratio(
        log_.self_seconds(solver_span_) - log_.duplicate_seconds(),
        run_seconds);
    const double engine = log_.self_seconds(engine_span_);
    values["sim.engine.runs"] =
        static_cast<double>(log_.count(engine_span_));
    values["sim.engine.events"] = static_cast<double>(engine_events_);
    values["sim.engine.events_per_s"] =
        ratio(static_cast<double>(engine_events_), engine);
    values["sim.engine.share"] = ratio(engine, run_seconds);
  }

  [[nodiscard]] std::uint16_t dlt_span() const noexcept { return dlt_span_; }
  [[nodiscard]] std::uint64_t iterations() const noexcept {
    return iterations_;
  }

 private:
  // Mirrors InstallmentSolver::solve on a miss: the matched allocation,
  // replayed alone under the comm model.
  bool duplicate_on_miss(double load, double alpha, std::uint32_t parent) {
    if (!seen_.insert({load, alpha}).second) return false;
    std::vector<ChunkAssignment> schedule;
    {
      const ScopedSpan span(log_, dlt_span_, parent, true);
      const auto allocation = nldl::dlt::nonlinear_single_round_for(
          service_.comm, bench_platform(), load, alpha);
      iterations_ += static_cast<std::uint64_t>(allocation.solver_iterations);
      schedule = allocation.to_schedule();
    }
    const ScopedSpan span(log_, engine_span_, parent, true);
    const nldl::sim::Engine engine(bench_platform(), {alpha});
    nldl::sim::EngineRun run(engine, *model_);
    for (const ChunkAssignment& chunk : schedule) (void)run.append(chunk);
    run.drain();
    engine_events_ += run.events();
    const nldl::sim::SimResult result = run.take_result();
    expected_.duration = result.makespan;
    expected_.busy = 0.0;
    for (const double t : result.worker_compute_time) expected_.busy += t;
    return true;
  }

  nldl::qos::ServiceModel service_;
  std::unique_ptr<nldl::sim::CommModel> model_;
  nldl::qos::InstallmentSolver solver_;
  SpanLog& log_;
  std::uint16_t solver_span_;
  std::uint16_t dlt_span_;
  std::uint16_t engine_span_;
  std::set<std::pair<double, double>> seen_;
  Installment expected_;
  std::uint64_t calls_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t iterations_ = 0;
  std::uint64_t engine_events_ = 0;
};

/// The calls AdmissionController::decide makes into the solver, in order.
nldl::qos::AdmissionDecision rebuilt_decide(
    const Job& job, const nldl::qos::AdmissionOptions& options,
    SolverProbe& solver, std::uint32_t parent) {
  nldl::qos::AdmissionDecision decision;
  const auto service_of = [&](double load) {
    return solver.predicted_service(load, job.alpha, parent);
  };
  const double full = service_of(job.load);
  if (!job.has_deadline() ||
      options.mode == nldl::qos::AdmissionMode::kAdmitAll ||
      full <= job.slack()) {
    decision.served_load = job.load;
    decision.predicted_service = full;
    return decision;
  }
  if (options.mode == nldl::qos::AdmissionMode::kReject) {
    decision.admitted = false;
    return decision;
  }
  if (service_of(options.min_load_fraction * job.load) > job.slack()) {
    decision.admitted = false;
    return decision;
  }
  double lo = options.min_load_fraction;
  double hi = 1.0;
  for (int i = 0; i < options.bisection_iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (service_of(mid * job.load) <= job.slack()) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  decision.degraded = true;
  decision.served_load = lo * job.load;
  decision.predicted_service = service_of(decision.served_load);
  return decision;
}

/// Keeps only the kInstallment events of a traced run: a full recording
/// of a long concurrent run is mostly chunk spans the rebuild never reads.
class InstallmentSink final : public nldl::obs::TraceSink {
 public:
  void record(const TraceEvent& event) override {
    if (event.kind == EventKind::kInstallment) events.push_back(event);
  }
  std::vector<TraceEvent> events;
};

/// Per-job totals the rebuild accumulates, in the server's order.
struct Rebuilt {
  double first_start = 0.0;
  double finish = 0.0;
  double service_time = 0.0;
  double compute_time = 0.0;
  double restart_time = 0.0;
  std::size_t installments = 0;
  std::size_t restarts = 0;
  bool bad = false;
};

/// The solver results a job's ServicePlan used.
struct Planned {
  Installment clean;
  Installment restart;
};

// qos_catalog: the installments come from the traced run's kInstallment
// spans, which the concurrent server emits per busy period in owner
// (dispatch) order. A fill pass at time t hands its installments to the
// subsets idle at t in ascending order; a subset is idle once its last
// installment finished at or before t. Busy periods are cut like
// online_soak's.
void rebuild_concurrent(const std::vector<Job>& jobs,
                        const std::vector<JobRecord>& records,
                        const std::vector<TraceEvent>& installments,
                        const nldl::obs::MetricsRegistry& registry,
                        SpanLog& log, std::uint16_t dlt, ReplayProbe& replay,
                        PassOutcome& out, std::uint64_t& iterations) {
  const nldl::qos::ServerOptions options = qos_options(Workload::kQosCatalog);
  const auto carve =
      bench_platform().interleaved_partition(options.concurrency);
  const std::size_t subsets = carve.subsets.size();

  std::map<std::tuple<std::size_t, double, double>,
           std::vector<ChunkAssignment>>
      subset_cache;
  std::uint64_t lookups = 0;
  std::vector<Rebuilt> rebuilt(jobs.size());
  std::vector<double> subset_free(subsets, -kNever);
  std::vector<const TraceEvent*> owners;
  double latest = -kNever;

  const auto flush = [&]() {
    for (std::size_t owner = 0; owner < owners.size(); ++owner) {
      const TraceEvent& event = *owners[owner];
      const double finish = replay.period().finish(owner);
      Rebuilt& job = rebuilt[event.job];
      if (!same_bits(finish, event.end)) job.bad = true;
      job.service_time += finish - event.start;
      job.compute_time += replay.period().busy(owner);
      job.finish = std::max(job.finish, finish);
    }
    replay.clear();
    owners.clear();
    latest = -kNever;
  };

  for (std::size_t i = 0; i < installments.size();) {
    const double now = installments[i].start;
    if (!owners.empty() && now >= latest) flush();
    std::size_t s = 0;
    for (; i < installments.size() && same_bits(installments[i].start, now);
         ++i) {
      const TraceEvent& event = installments[i];
      while (s < subsets && subset_free[s] > now) ++s;
      if (s >= subsets || event.job >= jobs.size()) {
        ++out.failed;  // no idle subset: the rebuild lost the server's state
        return;
      }
      const double alpha = jobs[event.job].alpha;
      const auto key = std::make_tuple(s, event.size, alpha);
      ++lookups;
      auto it = subset_cache.find(key);
      if (it == subset_cache.end()) {
        const ScopedSpan span(log, dlt);
        const auto allocation = nldl::dlt::nonlinear_single_round_for(
            options.service.comm, carve.subsets[s], event.size, alpha);
        iterations += static_cast<std::uint64_t>(allocation.solver_iterations);
        it = subset_cache.emplace(key, allocation.to_schedule()).first;
      }
      replay.dispatch(now, alpha, it->second, carve.workers[s], event.job,
                      jobs[event.job].tenant);
      Rebuilt& job = rebuilt[event.job];
      if (job.installments++ == 0) job.first_start = now;
      owners.push_back(&event);
      latest = std::max(latest, event.end);
      subset_free[s] = event.end;
      ++s;
    }
    replay.replay();
  }
  if (!owners.empty()) flush();
  out.failed += replay.counter_mismatches(registry);

  const std::size_t rounds = options.service.plan.rounds;
  for (std::size_t id = 0; id < jobs.size(); ++id) {
    const JobRecord& record = records[id];
    if (!record.admitted) continue;
    const Rebuilt& job = rebuilt[id];
    if (job.bad || job.installments != rounds ||
        !same_bits(job.first_start, record.dispatch) ||
        !same_bits(job.finish, record.finish) ||
        !same_bits(job.service_time, record.service_time) ||
        !same_bits(job.compute_time, record.compute_time)) {
      ++out.failed;
    }
  }
  out.values["qos.subset.solves"] = static_cast<double>(subset_cache.size());
  out.values["qos.subset.hit_ratio"] =
      ratio(static_cast<double>(lookups - subset_cache.size()),
            static_cast<double>(lookups));
}

// qos_slo_traced: the serial server times installments with the solver,
// emitting a kRestart span before each restart-inflated installment and a
// kInstallment span per installment, in time order.
void rebuild_serial(const std::vector<JobRecord>& records,
                    const std::vector<TraceEvent>& events,
                    const std::vector<Planned>& planned, PassOutcome& out) {
  std::vector<Rebuilt> rebuilt(records.size());
  std::vector<char> pending(records.size(), 0);
  for (const TraceEvent& event : events) {
    if (event.job >= records.size()) continue;
    if (event.kind == EventKind::kRestart) pending[event.job] = 1;
    if (event.kind != EventKind::kInstallment) continue;
    const Planned& plan = planned[event.job];
    Rebuilt& job = rebuilt[event.job];
    const bool restart = pending[event.job] != 0;
    pending[event.job] = 0;
    const Installment& served = restart ? plan.restart : plan.clean;
    if (!same_bits(event.start + served.duration, event.end)) job.bad = true;
    if (job.installments++ == 0) job.first_start = event.start;
    job.service_time += served.duration;
    job.compute_time += served.busy;
    if (restart) {
      job.restart_time += plan.restart.duration - plan.clean.duration;
      ++job.restarts;
    }
    job.finish = event.end;
  }
  const std::size_t rounds =
      qos_options(Workload::kQosSloTraced).service.plan.rounds;
  for (std::size_t id = 0; id < records.size(); ++id) {
    const JobRecord& record = records[id];
    if (!record.admitted) continue;
    const Rebuilt& job = rebuilt[id];
    if (job.bad || job.installments != rounds ||
        job.restarts != record.preemptions ||
        !same_bits(job.first_start, record.dispatch) ||
        !same_bits(job.finish, record.finish) ||
        !same_bits(job.service_time, record.service_time) ||
        !same_bits(job.compute_time, record.compute_time) ||
        !same_bits(job.restart_time, record.restart_time)) {
      ++out.failed;
    }
  }
}

PassOutcome qos_pass(Workload workload, const std::vector<Job>& jobs,
                     bool first) {
  PassOutcome out;
  out.attempted = jobs.size();
  const bool slo = workload == Workload::kQosSloTraced;
  const nldl::qos::ServerOptions options = qos_options(workload);

  nldl::obs::MetricsRegistry registry;
  Clock::time_point t0 = Clock::now();
  const std::vector<JobRecord> records =
      run_qos(workload, jobs, nullptr, &registry);
  double run_seconds = seconds_between(t0, Clock::now());
  out.failed += failed_records(jobs, records);
  if (records.size() != jobs.size()) return out;

  // The separate traced run: the user's trace for qos_slo_traced, only
  // the installment spans for qos_catalog. Tracing must not change a bit.
  nldl::obs::TraceRecorder recorder;
  InstallmentSink installments;
  nldl::obs::TraceSink* sink = slo ? static_cast<nldl::obs::TraceSink*>(
                                         &recorder)
                                   : &installments;
  t0 = Clock::now();
  const std::vector<JobRecord> traced = run_qos(workload, jobs, sink);
  const double traced_seconds = seconds_between(t0, Clock::now());
  out.failed += differing_records(records, traced);

  SpanLog log;
  SolverProbe solver(options.service, log);
  const auto model = nldl::qos::make_model(options.service);
  ReplayProbe replay(log, *model, options.incremental_replay);
  const std::uint16_t decide = log.intern("qos.admission.decide");
  const double rounds = static_cast<double>(options.service.plan.rounds);
  const double rho = options.service.plan.restart_load_fraction;
  std::vector<Planned> planned(jobs.size());
  double degraded = 0.0;
  double rejected = 0.0;
  for (const Job& job : jobs) {
    nldl::qos::AdmissionDecision decision;
    {
      const ScopedSpan span(log, decide);
      decision = rebuilt_decide(job, options.admission, solver, span.index());
    }
    const JobRecord& record = records[job.id];
    if (decision.admitted != record.admitted ||
        decision.degraded != record.degraded ||
        !same_bits(decision.served_load, record.served_load) ||
        !same_bits(decision.predicted_service, record.predicted_service)) {
      ++out.failed;
      continue;
    }
    if (!decision.admitted) {
      ++rejected;
      continue;
    }
    if (decision.degraded) ++degraded;
    // ServicePlan: the clean installment at construction, the restart-
    // inflated one on the first pause.
    Planned& plan = planned[job.id];
    plan.clean = solver.solve(decision.served_load / rounds, job.alpha);
    plan.restart = plan.clean;
    if (record.preemptions > 0 && rho != 0.0) {
      plan.restart =
          solver.solve((1.0 + rho) * decision.served_load / rounds, job.alpha);
    }
    double restart_time = 0.0;
    for (std::size_t p = 0; p < record.preemptions; ++p) {
      restart_time += plan.restart.duration - plan.clean.duration;
    }
    if (!same_bits(restart_time, record.restart_time)) ++out.failed;
  }
  out.failed += solver.mismatches();

  std::uint64_t iterations = solver.iterations();
  Values& values = out.values;
  if (slo) {
    rebuild_serial(records, recorder.events(), planned, out);

    const TraceAnalysis analysis = analyze_trace(recorder.events());
    values["obs.critical_path_s"] = analysis.critical_path_s;
    values["obs.attribution_s"] = analysis.attribution_s;
    values["obs.export_s"] = analysis.export_s;
    values["obs.export_mib"] =
        static_cast<double>(analysis.chrome.size()) / (1024.0 * 1024.0);
    out.failed += analysis.blame_failures;
    if (first && !nldl::obs::validate_chrome_trace_text(analysis.chrome).ok) {
      ++out.failed;
    }
  } else {
    rebuild_concurrent(jobs, records, installments.events, registry, log,
                       solver.dlt_span(), replay, out, iterations);
  }
  run_seconds =
      parent_seconds(run_seconds, [&] { (void)run_qos(workload, jobs); });

  if (slo) {
    const double events = static_cast<double>(recorder.size());
    values["obs.events"] = events;
    values["obs.trace_overhead_s"] = traced_seconds - run_seconds;
    values["obs.record_ns_per_event"] =
        ratio(traced_seconds - run_seconds, events) * 1e9;
  }

  report_dlt(values, log, solver.dlt_span(), iterations, run_seconds);
  solver.report(values, run_seconds);
  replay.report(values, run_seconds);
  const std::vector<double> decisions = log.durations(decide);
  values["qos.admission.decisions"] = static_cast<double>(decisions.size());
  values["qos.admission.decide_us.p50"] = us(median(decisions));
  values["qos.admission.decide_us.p99"] = us(quantile(decisions, 0.99));
  values["qos.admission.degraded"] = degraded;
  values["qos.admission.rejected"] = rejected;
  values["qos.admission.share"] =
      ratio(log.self_seconds(decide), run_seconds);
  values["loop.share"] = loop_share(values);
  return out;
}

}  // namespace

LayerResult layer_pass(Workload workload, const std::vector<Job>& jobs,
                       double seconds) {
  LayerResult result;
  std::vector<Values> passes;
  // Warm caches and the allocator before the first parent run is timed.
  if (workload == Workload::kOnlineSoak) {
    (void)run_online(jobs);
  } else {
    (void)run_qos(workload, jobs);
  }
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  double last = 0.0;
  // At least one pass; another only while it fits in the time budget.
  do {
    const Clock::time_point pass_start = Clock::now();
    PassOutcome pass = workload == Workload::kOnlineSoak
                           ? online_pass(jobs)
                           : qos_pass(workload, jobs, passes.empty());
    result.attempted += pass.attempted;
    // Counter and solver-call mismatches count too; a pass fails at most
    // every record it rebuilt.
    result.failed += std::min(pass.failed, pass.attempted);
    passes.push_back(std::move(pass.values));
    last = seconds_between(pass_start, Clock::now());
    elapsed = seconds_between(start, Clock::now());
  } while (elapsed + last <= seconds);
  result.passes = passes.size();
  result.span_cost_ns = SpanLog().span_seconds() * 1e9;

  for (const MetricSpec& spec : kLayerMetrics) {
    std::vector<double> samples;
    for (const Values& pass : passes) {
      const auto it = pass.find(spec.name);
      samples.push_back(it == pass.end() ? 0.0 : it->second);
    }
    result.metrics.push_back({spec.name, median(samples), spec.unit});
  }
  return result;
}

}  // namespace servebench
