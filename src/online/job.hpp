// The job model of the online (open-system) scheduling subsystem.
//
// Where the rest of the library studies ONE divisible load in isolation,
// online/ simulates a stream of competing loads arriving over time (the
// multi-load setting of Gallet–Robert–Vivien and Wu–Cao–Robertazzi). Each
// job is itself a divisible load: `load` units of work whose compute cost
// on worker i is w_i · X^alpha for a chunk of X units, exactly the
// sim::Engine cost model. Jobs carry their own alpha so a stream can mix
// job classes (linear alpha = 1 next to quadratic alpha = 2) — the case
// where the paper's nonlinearity makes size-based priority rules mis-rank
// (see online/scheduler.hpp).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace nldl::online {

/// One divisible-load job of an open arrival stream.
struct Job {
  std::size_t id = 0;      ///< 0..n-1, in arrival order
  double arrival = 0.0;    ///< release time (>= 0)
  double load = 0.0;       ///< load units of divisible work (> 0)
  double alpha = 1.0;      ///< compute cost exponent (>= 1)
  /// Absolute completion deadline (SLO); +infinity = best-effort, no
  /// deadline. Ignored by online::Server; consumed by the qos/ admission
  /// and EDF layers.
  double deadline = std::numeric_limits<double>::infinity();
  /// Owning tenant (qos/ multi-tenant fairness); 0 in single-tenant runs.
  std::size_t tenant = 0;

  [[nodiscard]] bool has_deadline() const noexcept {
    return deadline < std::numeric_limits<double>::infinity();
  }
  /// Time between release and deadline (+infinity when best-effort).
  [[nodiscard]] double slack() const noexcept { return deadline - arrival; }
};

/// The stream contract both servers (online::Server, qos::Server) share:
/// ids 0..n-1 in order, arrivals finite, >= 0 and non-decreasing, loads
/// finite and normal (>= DBL_MIN), alphas finite and >= 1. Throws
/// util::PreconditionError on the first violation — a NaN or infinite field
/// is a caller error, not a stream the event loop could ever drain, and a
/// subnormal load has too few bits for the dlt solvers to split. A load
/// whose load^alpha overflows, or whose makespan bracket does on the
/// server's platform, is rejected by the solver at the job's first solve
/// (dlt/nonlinear_dlt.hpp), also as a PreconditionError. Deadlines are the
/// caller's to check (+infinity is a legal best-effort deadline).
void validate_stream(const std::vector<Job>& jobs);

/// Completed-job record produced by online::Server.
struct JobStats {
  Job job;
  double dispatch = 0.0;   ///< service start (>= job.arrival)
  double finish = 0.0;     ///< last chunk's compute end
  std::size_t slot = 0;    ///< processor partition that served the job
  std::size_t workers = 0; ///< workers in that partition
  /// Σ compute busy time over the job's workers (utilization accounting).
  double compute_time = 0.0;
  /// Makespan of the job run alone on the FULL platform under the same
  /// communication model — the slowdown baseline. 0 when the server was
  /// configured not to record it.
  double isolated_makespan = 0.0;

  [[nodiscard]] double wait() const noexcept { return dispatch - job.arrival; }
  [[nodiscard]] double latency() const noexcept {
    return finish - job.arrival;
  }
  /// Latency normalized by the job's isolated makespan (>= 1 under an
  /// exclusive scheduler; can exceed 1 even with zero wait under
  /// processor partitioning, which serves jobs on a slice of the
  /// platform). 1 when no baseline was recorded.
  [[nodiscard]] double slowdown() const noexcept {
    return isolated_makespan > 0.0 ? latency() / isolated_makespan : 1.0;
  }
};

}  // namespace nldl::online
