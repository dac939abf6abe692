// Nonlinear divisible load allocation (paper Section 2).
//
// Compute cost on worker i for a chunk of X load units is w_i · X^alpha with
// alpha > 1 (e.g. alpha = 2 for the "quadratic loads" of Hung & Robertazzi,
// Suresh et al. — refs [31–35] of the paper). Optimal single-round
// allocations equalize finish times; they have no closed form on
// heterogeneous platforms, so nldl solves the optimality conditions with its
// own bracketed root-finders (util/roots.hpp).
//
// The headline quantity is `remaining_fraction`: the share of the total
// work W = N^alpha that is *not* performed by the single DLT round,
//   1 − Σ n_i^alpha / N^alpha,
// which the paper proves tends to 1 as p grows (homogeneous closed form:
// 1 − 1/p^(alpha−1)) — the "no free lunch" theorem.
#pragma once

#include <cstddef>
#include <vector>

#include "platform/platform.hpp"
#include "sim/engine.hpp"

namespace nldl::dlt {

struct NonlinearAllocation {
  std::vector<double> amounts;  ///< n_i load units to worker i
  double makespan = 0.0;        ///< common finish time T
  double alpha = 1.0;

  /// Convert to an engine schedule (one chunk per worker, in the given
  /// send order; defaults to worker order). Replaying it with
  /// sim::Engine{platform, {alpha}} reproduces `makespan`.
  [[nodiscard]] std::vector<sim::ChunkAssignment> to_schedule() const;
  [[nodiscard]] std::vector<sim::ChunkAssignment> to_schedule(
      const std::vector<std::size_t>& send_order) const;

  /// Work performed by the round, in unit-speed time: Σ n_i^alpha.
  double work_done = 0.0;
  /// Total work of the monolithic job: N^alpha.
  double total_work = 0.0;
  /// 1 − work_done / total_work (the paper's (W − W_partial)/W).
  double remaining_fraction = 0.0;

  int solver_iterations = 0;  ///< outer bisection iterations
};

/// Optimal single-round allocation under the parallel-links model:
///   c_i·n_i + w_i·n_i^alpha = T for all i,  Σ n_i = total_load.
/// Solved by bisection on T, with each n_i(T) found by safeguarded Newton
/// (util::newton_safeguarded). A worker whose (c, w) bit patterns equal the
/// previous worker's reuses its chunk instead of solving again; Σ n_i(T) is
/// still summed in worker order.
/// Requires alpha >= 1; with alpha == 1 this matches the linear closed form.
///
/// Bit-exactness: every solver here returns the same bits as one that calls
/// std::pow for every x^alpha, x^(alpha−1) and x^(1/alpha). It skips the
/// call only where the exponent is 0 (pow(x, ±0) = 1, C Annex F) or 1
/// (pow(x, 1) = x: glibc's sub-ULP error bound gives it for x that are not
/// powers of two, and a test pins every power of two plus ±0, ±inf and
/// NaN). x^2 and x^0.5 keep std::pow: glibc's pow differs from x*x and from
/// std::sqrt in the last bit on ~0.1% of inputs, which would change the
/// bench payloads.
///
/// All solvers require finite total_load >= 0 and finite alpha >= 1. Their
/// bisection on T stops at a relative tolerance of 1e-10 (of the bracket
/// and of the load) or after 200 steps.
[[nodiscard]] NonlinearAllocation nonlinear_parallel_single_round(
    const platform::Platform& platform, double total_load, double alpha);

/// Optimal single-round allocation under the one-port model for a given
/// send order: worker fed at time τ_i = Σ_{j before i} c_j·n_j satisfies
///   τ_i + c_i·n_i + w_i·n_i^alpha = T.
/// This is the setting of the nonlinear-DLT literature ([31–35]); workers
/// that cannot receive anything before T contribute n_i = 0. Each budget
/// depends on the feed clock, so every worker solves its own chunk.
[[nodiscard]] NonlinearAllocation nonlinear_one_port_single_round(
    const platform::Platform& platform, double total_load, double alpha,
    const std::vector<std::size_t>& send_order);

/// Same, feeding workers in platform order 0..p-1.
[[nodiscard]] NonlinearAllocation nonlinear_one_port_single_round(
    const platform::Platform& platform, double total_load, double alpha);

/// The optimal single-round allocation MATCHED to a communication model
/// kind: the one-port optimality conditions under kOnePort (the master
/// serializes sends, platform feed order), parallel links otherwise —
/// bounded multiport has no closed-form allocator, and parallel links is
/// its uncapped limit. This is the one dispatch every scheduler, server,
/// and service-plan layer shares, so predictions and replays always
/// solve the same allocation for a given comm kind.
[[nodiscard]] NonlinearAllocation nonlinear_single_round_for(
    sim::CommModelKind comm, const platform::Platform& platform,
    double total_load, double alpha);

/// Closed-form makespan of the homogeneous optimum (paper Section 2):
/// every worker gets N/p, finishing at (N/p)·c + w·(N/p)^alpha. Requires
/// finite total_load >= 0.
[[nodiscard]] double homogeneous_nonlinear_makespan(std::size_t p, double c,
                                                    double w, double total_load,
                                                    double alpha);

}  // namespace nldl::dlt
