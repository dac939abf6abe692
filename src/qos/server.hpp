// The QoS server: SLO-aware admission + chunk-boundary preemption on one
// star platform.
//
// Where online::Server serves whole jobs atomically, the qos server
// drives every admitted job through a preemptable ServicePlan
// (qos/plan.hpp) and re-decides at every chunk boundary which ready job
// runs next (qos/policy.hpp). One event loop serves every concurrency:
//
//   - arrivals pass through the AdmissionController: a job whose deadline
//     provably cannot be met is rejected or degraded BEFORE it can clog
//     the queue;
//   - the platform is carved into k = ServerOptions::concurrency disjoint
//     interleaved worker subsets, and up to k installments of DIFFERENT
//     jobs run at once, one per subset. Chunk boundaries are the only
//     decision points: an arrival joins the ready set at once but waits
//     for a subset to free, and a running chunk is never abandoned;
//   - at k = 1 (default) the one subset is the whole platform and
//     installments never overlap (the exclusive shape where SRPT/EDF
//     theory applies), so each installment's solver-timed duration is
//     its served timeline;
//   - at k > 1 the installments are time-released chunks multiplexed
//     through ONE sim::Engine run per busy period under the single
//     configured CommModel. A bounded-multiport capacity is then
//     genuinely shared: concurrent installments contend for the master's
//     bandwidth instead of each enjoying a private port (honest
//     contention, ROADMAP's dynamic-repartitioning step (b)). Policy
//     priorities and WFQ's attained-service accounting still use the
//     solver's contention-free whole-platform duration estimates (a
//     consistent yardstick); actual timing comes from the shared replay.
//     NOTE: admission keeps predicting against uninterrupted
//     WHOLE-PLATFORM service — on a 1/k subset under contention real
//     service is strictly longer (superlinearly so for alpha > 1), so
//     concurrency makes the admission check MORE optimistic: rejections
//     stay provably correct (whole-platform service is a lower bound on
//     any subset's), but admitted/degraded jobs can miss deadlines a
//     k = 1 server would have met. Subset-aware admission is future
//     work (ROADMAP, dynamic repartitioning (d));
//   - the gap rule: a started job that does not resume seamlessly at the
//     boundary where its previous installment ended is paused (its state
//     went cold while others used the platform), and its resume pays the
//     plan's nonlinear restart surcharge, so preemption is observable in
//     both the latency metrics and the per-job restart accounting;
//   - the whole run consumes no RNG and breaks every tie
//     deterministically, so a run is a pure function of the job stream —
//     bit-identical wherever it executes (the property bench_qos's
//     serial-vs-parallel self-check rides on).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "online/job.hpp"
#include "platform/platform.hpp"
#include "qos/admission.hpp"
#include "qos/plan.hpp"
#include "qos/policy.hpp"
#include "sim/multiplex.hpp"

namespace nldl::obs {
class MetricsRegistry;
}  // namespace nldl::obs

namespace nldl::qos {

struct ServerOptions {
  ServiceModel service;
  AdmissionOptions admission;
  /// Disjoint worker subsets serving installments of different jobs
  /// concurrently (clamped to the worker count). 1 = whole-platform
  /// installments, one at a time, timed by the solver alone.
  std::size_t concurrency = 1;
  /// Shared-master busy periods (concurrency > 1) resume each replay
  /// from a checkpoint of the settled prefix
  /// (sim::SharedMasterOptions::incremental) instead of re-simulating
  /// the whole period. Bit-identical results; off only buys the
  /// O(period²) reference behavior.
  bool incremental_replay = true;
  /// Optional trace sink (obs/trace.hpp, non-owning, must outlive the
  /// server's run). When set, the served timeline is emitted as typed
  /// events on the simulated clock: admission verdicts at every arrival,
  /// preemptions with their restart surcharge, restart re-work spans,
  /// per-installment spans, whole-job spans, deadline misses, and (under
  /// concurrency > 1) the shared replay's chunk spans and bookkeeping.
  /// Tracing never changes results: JobRecords are bit-identical with or
  /// without a sink.
  obs::TraceSink* trace = nullptr;
};

/// Outcome of one offered job.
struct JobRecord {
  online::Job job;  ///< as offered (original load and deadline)
  bool admitted = false;
  bool degraded = false;
  /// Load actually dispatched (< job.load when degraded, 0 when
  /// rejected).
  double served_load = 0.0;
  /// Admission's predicted uninterrupted service of served_load.
  double predicted_service = 0.0;
  double dispatch = 0.0;  ///< first installment start (admitted jobs)
  double finish = 0.0;    ///< last installment end; = arrival if rejected
  /// Σ wall time of the job's installments (incl. restart inflation).
  /// Under concurrency > 1 this is measured from the shared engine
  /// replay, so cross-subset contention shows up here.
  double service_time = 0.0;
  /// Σ compute busy time across workers (utilization accounting).
  double compute_time = 0.0;
  std::size_t preemptions = 0;
  /// Extra wall time charged by restart inflation. Under concurrency > 1
  /// this stays the solver's contention-free estimate (the re-dispatched
  /// load itself is replayed honestly; only this attribution metric uses
  /// the estimate).
  double restart_time = 0.0;

  [[nodiscard]] double wait() const noexcept {
    return dispatch - job.arrival;
  }
  [[nodiscard]] double latency() const noexcept {
    return finish - job.arrival;
  }
  /// Admitted, completed, and on time (best-effort jobs are always on
  /// time). False for rejected jobs.
  [[nodiscard]] bool met_deadline() const noexcept {
    return admitted && finish <= job.deadline;
  }
};

class Server {
 public:
  explicit Server(const platform::Platform& platform,
                  ServerOptions options = {});

  [[nodiscard]] const platform::Platform& platform() const noexcept {
    return platform_;
  }
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

  /// Simulate the stream to completion. `jobs` must satisfy
  /// online::validate_stream() — ids 0..n-1, finite arrivals in
  /// non-decreasing order, finite loads and alphas (the shape
  /// generate_tenant_traffic and PoissonArrivals::generate produce) — and
  /// every deadline must lie strictly after its arrival (+infinity =
  /// best-effort). `policy` is reset() and then owned
  /// for the duration of the run (it accumulates run-local state).
  /// Returns one JobRecord per offered job, in id order. `metrics`, when
  /// non-null, accumulates qos.* outcome counters (admitted / degraded /
  /// rejected / deadline_misses / preemptions, plus the qos.restart_time_s
  /// gauge) and — under concurrency > 1 — shared-master replay cost as
  /// replay.engine_events / replay.replays / replay.busy_periods.
  [[nodiscard]] std::vector<JobRecord> run(
      const std::vector<online::Job>& jobs, Policy& policy,
      obs::MetricsRegistry* metrics = nullptr) const;

 private:
  /// The event loop behind run(), over `concurrency` worker subsets;
  /// fills `records` in place.
  void serve(const std::vector<online::Job>& jobs, Policy& policy,
             std::vector<JobRecord>& records, std::size_t concurrency,
             obs::MetricsRegistry* metrics) const;

  const platform::Platform& platform_;
  ServerOptions options_;
  std::unique_ptr<sim::CommModel> model_;
  /// Shared by admission and every ServicePlan: one nonlinear solve per
  /// distinct installment while it stays in the solver's bounded memo.
  /// mutable because run() is const but the memo changes.
  mutable InstallmentSolver solver_;
  AdmissionController admission_;
};

}  // namespace nldl::qos
