// Nonlinear divisible load allocation (paper Section 2).
//
// Compute cost on worker i for a chunk of X load units is w_i · X^alpha with
// alpha > 1 (e.g. alpha = 2 for the "quadratic loads" of Hung & Robertazzi,
// Suresh et al. — refs [31–35] of the paper). Optimal single-round
// allocations equalize finish times; the common makespan has no closed form
// on heterogeneous platforms, so nldl solves the optimality conditions with
// its own bracketed Newton iteration (util/roots.hpp). Each worker's chunk
// for a given makespan has one at alpha = 1 and alpha = 2.
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

  /// Convert to an engine schedule (one chunk per worker, in worker
  /// order). Replaying it with sim::Engine{platform, {alpha}} reproduces
  /// `makespan`.
  [[nodiscard]] std::vector<sim::ChunkAssignment> to_schedule() const;

  /// Work performed by the round, in unit-speed time: Σ n_i^alpha.
  double work_done = 0.0;
  /// Total work of the monolithic job: N^alpha.
  double total_work = 0.0;
  /// 1 − work_done / total_work (the paper's (W − W_partial)/W).
  double remaining_fraction = 0.0;

  int solver_iterations = 0;  ///< outer Newton iterations
};

/// Optimal single-round allocation under the parallel-links model:
///   c_i·n_i + w_i·n_i^alpha = T for all i,  Σ n_i = total_load.
/// Solved by Newton on T with the exact derivative
///   dN/dT = Σ_i 1/(c_i + alpha·w_i·n_i^(alpha−1)),
/// each n_i(T) itself in closed form at alpha = 1 and 2 and by Newton on n
/// otherwise (see Arithmetic below); every Newton runs in
/// util::newton_safeguarded, inside a bracket. A worker whose (c, w) bit
/// patterns equal the previous worker's reuses its chunk (and its term of
/// dN/dT) instead of solving again; sums still run in worker order.
/// Requires alpha >= 1; with alpha == 1 this matches the linear closed form.
///
/// Arithmetic: at alpha = 1 and alpha = 2 each chunk is its closed-form
/// root for a budget B, n = B/(c + w) and n = 2B/(c + √(c² + 4·w·B)) (the
/// quadratic root written so that nothing cancels). Every other alpha finds
/// the chunk by Newton on n, which is also the fallback wherever c + w or
/// c² + 4·w·B overflows. Powers skip std::pow at three exponents: x^0 = 1
/// and x^1 = x, which are exact (a test pins the libm identities), and x^2,
/// which is x * x, the correctly rounded square. Every other exponent
/// (x^1.5, x^3, x^(1/alpha), ...) is std::pow's.
///
/// All solvers require finite total_load >= 0 and finite alpha >= 1, a
/// load that is 0 or a normal double (>= DBL_MIN), and a bracket t_hi that
/// is a finite normal double; anything else throws util::PreconditionError
/// naming the cause. Their Newton iteration on T starts from the bracket
/// [0, t_hi], t_hi the time one worker takes for the whole load
/// (c·N + w·N^alpha), and stops once |Σ n_i − N| is within 1e-10 of N or
/// the bracket within 1e-10 of t_hi, or after 200 steps. Σ n_i(T) is
/// increasing and concave, so it usually stops on the load residual within
/// a few steps; that pins T much tighter than a bracket width of
/// 1e-10·t_hi would when t_hi sits far above T.
[[nodiscard]] NonlinearAllocation nonlinear_parallel_single_round(
    const platform::Platform& platform, double total_load, double alpha);

/// Optimal single-round allocation under the one-port model, feeding
/// workers in platform order 0..p-1: worker fed at time
/// τ_i = Σ_{j < i} c_j·n_j satisfies
///   τ_i + c_i·n_i + w_i·n_i^alpha = T.
/// This is the setting of the nonlinear-DLT literature ([31–35]); workers
/// that cannot receive anything before T contribute n_i = 0. Each budget
/// depends on the feed clock, so every worker solves its own chunk. Newton
/// on T uses dN/dT = Σ dn_i over the fed workers, where
///   dn_i = (1 − D_i)/(c_i + alpha·w_i·n_i^(alpha−1)),
///   D_i = Σ_{j < i} c_j·dn_j (the feed clock's own rate).
/// Another send order is the same solve on a reordered Platform.
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
