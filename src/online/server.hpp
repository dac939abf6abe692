// The online server: an open system of divisible-load jobs on one star
// platform.
//
// The server owns the queueing/admission layer and drives every job's
// service through the event-driven sim::Engine:
//
//   - the platform is carved into scheduler.shares() disjoint worker
//     partitions ("slots"), interleaved by worker index so heterogeneous
//     platforms split evenly (worker i goes to slot i mod S);
//   - the scheduler ranks each job once, when it joins the queue
//     (Scheduler::rank on the whole platform); whenever a slot is idle
//     and the queue is non-empty, the slot takes the lowest-ranked job,
//     the earliest arrival among equal ranks;
//   - the job's load is split across the slot's workers by the OPTIMAL
//     single-round nonlinear allocation matched to the communication
//     model (dlt::nonlinear_one_port_single_round under
//     one-port, dlt::nonlinear_parallel_single_round otherwise), and the
//     resulting schedule is replayed by sim::Engine under the configured
//     CommModel inside a busy period (see "Master modes" below), which
//     timestamps the per-job finish via the engine's completion hook;
//   - simultaneous events resolve deterministically: completions first,
//     then arrivals, then dispatches in ascending slot index. The whole
//     simulation consumes no RNG, so a run is a pure function of the job
//     stream — bit-identical wherever it executes (the property
//     bench_online's serial-vs-parallel self-check rides on).
//
// Master modes: every dispatched job's chunks replay through a busy
// period (sim::SharedMasterPeriod) under the ONE configured CommModel,
// each job one period owner; the mode only decides how slots group onto
// periods. Under kSharedMaster one period holds every slot: each job's
// chunks are released at its dispatch instant
// (sim::ChunkAssignment::release) and contend with every other in-flight
// job's transfers — with a BoundedMultiportModel capacity this is honest
// cross-slot bandwidth contention on a genuinely shared master. Under
// kPrivatePort (the historical model) each slot gets its own period, so
// the master's port/capacity constraint applies per slot, not across
// concurrent slots (a partitioned master — every slot effectively gets a
// private port). Period clocks are period-relative, so a busy period
// with a single job reproduces that job's replay alone on its slot bit
// for bit: exclusive schedulers are unchanged by the mode and fair share
// only diverges where contention is real.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "online/job.hpp"
#include "online/scheduler.hpp"
#include "platform/platform.hpp"
#include "sim/comm_model.hpp"
#include "sim/engine.hpp"
#include "sim/multiplex.hpp"

namespace nldl::obs {
class MetricsRegistry;
}  // namespace nldl::obs

namespace nldl::online {

/// How concurrent slots reach the master (see the file comment).
enum class MasterMode {
  kPrivatePort,   ///< one busy period per slot: a partitioned master
  kSharedMaster,  ///< one busy period for all slots: honest contention
};

[[nodiscard]] std::string to_string(MasterMode mode);

struct ServerOptions {
  sim::CommModelKind comm = sim::CommModelKind::kParallelLinks;
  /// Master capacity / concurrency (consulted for kBoundedMultiport).
  double capacity = std::numeric_limits<double>::infinity();
  std::size_t max_concurrent = sim::BoundedMultiportModel::kUnlimited;
  /// Whether concurrent slots contend for the master's bandwidth.
  MasterMode master = MasterMode::kPrivatePort;
  /// Also simulate every job alone on the full platform to fill
  /// JobStats::isolated_makespan (the slowdown baseline). Costs one extra
  /// engine run per job.
  bool record_isolated = true;
  /// Busy periods resume each replay from a checkpoint of the settled
  /// prefix (sim::SharedMasterOptions::incremental) instead of
  /// re-simulating the whole period. Bit-identical results; off only buys
  /// the O(period²) reference behavior.
  bool incremental_replay = true;
  /// Optional trace sink (obs/trace.hpp, non-owning, must outlive the
  /// server's run). When set, the served timeline is emitted as typed
  /// events on the simulated clock: chunk transfer/compute spans with
  /// job/tenant/worker/alpha attribution, dispatch instants, whole-job
  /// spans, and the replay machinery's bookkeeping. The isolated-baseline
  /// runs (record_isolated) stay untraced — they are counterfactuals, not
  /// the served timeline. Tracing never changes
  /// results: JobStats are bit-identical with or without a sink.
  obs::TraceSink* trace = nullptr;
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

  /// Simulate the open system to completion (every job served, however
  /// far past the last arrival that takes). `jobs` must satisfy
  /// validate_stream() (online/job.hpp): ids 0..n-1, finite arrivals in
  /// non-decreasing order, finite loads and alphas — the shape
  /// PoissonArrivals::generate produces. Returns one JobStats per job, in
  /// id order. `metrics`, when non-null, accumulates busy-period replay
  /// cost as counters (replay.engine_events / replay.replays /
  /// replay.busy_periods) under either master mode — the soak bench's
  /// events/sec. A traced run emits, per period, the dispatch instants
  /// (kDispatch.value = the job's chunk count), checkpoint and replay
  /// instants, and the chunk spans (see ServerOptions::trace).
  [[nodiscard]] std::vector<JobStats> run(
      const std::vector<Job>& jobs, const Scheduler& scheduler,
      obs::MetricsRegistry* metrics = nullptr) const;

 private:
  /// Makespan of `job` run alone on the full platform: the untraced
  /// slowdown baseline behind ServerOptions::record_isolated.
  [[nodiscard]] double isolated_makespan(const Job& job) const;

  /// The job's optimal single-round allocation on `slot_platform`
  /// (matched to the configured comm model), as an engine schedule.
  [[nodiscard]] std::vector<sim::ChunkAssignment> job_schedule(
      const platform::Platform& slot_platform, const Job& job) const;

  /// kArrival instant when tracing: the job joined the wait queue with
  /// `ahead` jobs in front of it (the queue-position cause of its wait).
  void emit_arrival(const Job& job, std::size_t ahead) const;

  const platform::Platform& platform_;
  ServerOptions options_;
  std::unique_ptr<sim::CommModel> model_;
};

}  // namespace nldl::online
