#include "dlt/nonlinear_dlt.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/assert.hpp"
#include "util/roots.hpp"

namespace nldl::dlt {

std::vector<sim::ChunkAssignment> NonlinearAllocation::to_schedule() const {
  return sim::single_round_schedule(amounts);
}

std::vector<sim::ChunkAssignment> NonlinearAllocation::to_schedule(
    const std::vector<std::size_t>& send_order) const {
  return sim::single_round_schedule(amounts, send_order);
}

namespace {

/// std::pow(x, e), bit for bit, without the call at the two exponents whose
/// result is exact: pow(x, ±0) = 1 for every x (C Annex F), and pow(x, 1) =
/// x. For x that is not a power of two, glibc's sub-ULP error bound leaves
/// x as the only candidate; NonlinearFastPaths.LibmPowIdentitiesHold pins
/// every power of two plus ±0, ±inf and NaN. x^2 and x^0.5 still call
/// std::pow: glibc's pow differs from x*x and from std::sqrt in the last
/// bit on ~0.1% of inputs.
double power(double x, double e) {
  if (e == 0.0) return 1.0;
  if (e == 1.0) return x;  // nldl-lint: allow(double-eq): exact exponent 1, where pow(x, 1) == x bit for bit
  return std::pow(x, e);
}

void require_solver_inputs(double total_load, double alpha) {
  NLDL_REQUIRE(std::isfinite(total_load) && total_load >= 0.0,
               "total_load must be finite and >= 0");
  NLDL_REQUIRE(std::isfinite(alpha) && alpha >= 1.0,
               "alpha must be finite and >= 1");
}

/// Solve c·n + w·n^alpha = budget for n >= 0 (unique root; 0 if budget <= 0).
double chunk_for_budget(double c, double w, double alpha, double budget) {
  if (budget <= 0.0) return 0.0;
  auto f = [&](double n) { return c * n + w * power(n, alpha) - budget; };
  auto df = [&](double n) { return c + w * alpha * power(n, alpha - 1.0); };
  // Upper bracket: n <= budget / c (communication alone) and
  // n <= (budget / w)^(1/alpha) (computation alone). In exact arithmetic f
  // >= 0 at either bound, hence at their min; the doubling loop only
  // absorbs rounding that leaves f(hi) just below zero.
  double hi = std::min(budget / c, power(budget / w, 1.0 / alpha));
  double fhi = f(hi);
  while (fhi < 0.0) {
    hi *= 2.0;
    fhi = f(hi);
  }
  // Tolerances must scale with the problem: |f| carries the magnitude of
  // `budget` (double precision bottoms out near 1e-16·budget), and the
  // bracket carries the magnitude of the chunk size.
  util::RootOptions opts;
  opts.f_tol = 1e-12 * std::max(1.0, budget);
  opts.x_tol = 1e-13 * std::max(1.0, hi);
  // f(0) is exactly −budget: c·0 and w·0^alpha are both +0.
  const auto result =
      util::newton_safeguarded(f, df, 0.0, hi, -budget, fhi, opts);
  NLDL_ASSERT(result.converged, "nonlinear chunk solve did not converge");
  return result.x;
}

/// True when a and b have the same (c, w) bit patterns, and so the same
/// chunk for every budget.
bool same_bits(const platform::Processor& a, const platform::Processor& b) {
  return std::bit_cast<std::uint64_t>(a.c) ==
             std::bit_cast<std::uint64_t>(b.c) &&
         std::bit_cast<std::uint64_t>(a.w) ==
             std::bit_cast<std::uint64_t>(b.w);
}

/// Bisect f(T) = Σ n_i(T) − N for the makespan T, starting from the
/// bracket [0, t_hi]. f(0) is exactly −N: every chunk is 0 at a zero
/// budget. t_hi holds the whole load in exact arithmetic, but a tight
/// bracket (one worker) can leave f(t_hi) just below zero after rounding
/// in the chunk solves, so t_hi doubles until f turns non-negative.
template <typename F>
util::RootResult solve_makespan(F&& f, double total_load, double t_hi) {
  double f_hi = f(t_hi);
  while (f_hi < 0.0) {
    t_hi *= 2.0;
    f_hi = f(t_hi);
  }
  util::RootOptions opts;
  opts.x_tol = 1e-10 * t_hi;
  opts.f_tol = 1e-10 * total_load;
  opts.max_iterations = 200;
  return util::bisect(f, 0.0, t_hi, -total_load, f_hi, opts);
}

void finalize(NonlinearAllocation& alloc, double total_load, double alpha) {
  alloc.alpha = alpha;
  alloc.total_work = power(total_load, alpha);
  alloc.work_done = 0.0;
  for (const double n : alloc.amounts) {
    alloc.work_done += power(n, alpha);
  }
  alloc.remaining_fraction =
      alloc.total_work > 0.0 ? 1.0 - alloc.work_done / alloc.total_work : 0.0;
}

}  // namespace

NonlinearAllocation nonlinear_parallel_single_round(
    const platform::Platform& platform, double total_load, double alpha) {
  require_solver_inputs(total_load, alpha);
  const std::vector<platform::Processor>& workers = platform.workers();
  const std::size_t p = workers.size();

  NonlinearAllocation alloc;
  alloc.amounts.assign(p, 0.0);
  if (total_load == 0.0) {
    finalize(alloc, total_load, alpha);
    return alloc;
  }

  // Writes every n_i(T) into alloc.amounts; returns Σ n_i(T), summed in
  // worker order. n_i(T) depends only on (c_i, w_i, alpha, T), so a worker
  // identical to the one before it copies that worker's chunk instead of
  // solving again.
  auto fill_for = [&](double T) {
    double sum = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      alloc.amounts[i] =
          i > 0 && same_bits(workers[i], workers[i - 1])
              ? alloc.amounts[i - 1]
              : chunk_for_budget(workers[i].c, workers[i].w, alpha, T);
      sum += alloc.amounts[i];
    }
    return sum;
  };

  // Upper bound: any single worker processing the whole load alone finishes
  // by T = c·N + w·N^alpha, so Σ n_i(T) >= N there in exact arithmetic.
  const double total_pow = power(total_load, alpha);
  double t_hi = std::numeric_limits<double>::infinity();
  for (const platform::Processor& worker : workers) {
    t_hi = std::min(t_hi, worker.c * total_load + worker.w * total_pow);
  }

  // Σ n_i(T) is continuous and strictly increasing in T, so bisect on T.
  auto f = [&](double T) { return fill_for(T) - total_load; };
  const auto root = solve_makespan(f, total_load, t_hi);
  NLDL_ASSERT(root.converged, "nonlinear outer bisection did not converge");

  alloc.makespan = root.x;
  alloc.solver_iterations = root.iterations;
  // Rescale the tiny residual so Σ n_i == total_load exactly.
  const double sum = fill_for(root.x);
  if (sum > 0.0) {
    const double scale = total_load / sum;
    for (double& n : alloc.amounts) n *= scale;
    alloc.makespan = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      alloc.makespan = std::max(
          alloc.makespan, workers[i].c * alloc.amounts[i] +
                              workers[i].w * power(alloc.amounts[i], alpha));
    }
  }
  finalize(alloc, total_load, alpha);
  return alloc;
}

NonlinearAllocation nonlinear_one_port_single_round(
    const platform::Platform& platform, double total_load, double alpha,
    const std::vector<std::size_t>& send_order) {
  require_solver_inputs(total_load, alpha);
  const std::size_t p = platform.size();
  NLDL_REQUIRE(send_order.size() == p,
               "send order must cover every worker exactly once");
  std::vector<bool> seen(p, false);
  for (const std::size_t worker : send_order) {
    NLDL_REQUIRE(worker < p, "send order index out of range");
    NLDL_REQUIRE(!seen[worker], "send order repeats a worker");
    seen[worker] = true;
  }

  NonlinearAllocation alloc;
  alloc.amounts.assign(p, 0.0);
  if (total_load == 0.0) {
    finalize(alloc, total_load, alpha);
    return alloc;
  }

  // For a candidate makespan T, feed workers in order; each takes the
  // largest chunk it can finish by T given when its reception can start.
  // Every budget depends on the feed clock, so identical workers still
  // solve their own chunks here.
  const std::vector<platform::Processor>& workers = platform.workers();
  auto fill_for = [&](double T, std::vector<double>& amounts) {
    double clock = 0.0;  // master port becomes free
    double sum = 0.0;
    for (const std::size_t worker : send_order) {
      const double budget = T - clock;
      const double n = chunk_for_budget(workers[worker].c, workers[worker].w,
                                        alpha, budget);
      amounts[worker] = n;
      clock += workers[worker].c * n;
      sum += n;
    }
    return sum;
  };

  // The first worker alone takes the whole load by c·N + w·N^alpha.
  const std::size_t first = send_order[0];
  const double t_hi = workers[first].c * total_load +
                      workers[first].w * power(total_load, alpha);

  std::vector<double> scratch(p, 0.0);
  auto f = [&](double T) { return fill_for(T, scratch) - total_load; };
  const auto root = solve_makespan(f, total_load, t_hi);
  NLDL_ASSERT(root.converged, "one-port outer bisection did not converge");

  alloc.makespan = root.x;
  alloc.solver_iterations = root.iterations;
  fill_for(root.x, alloc.amounts);
  // Rescale the residual onto the allocation (keeps Σ n_i exact; the
  // perturbation of finish times is within solver tolerance).
  double sum = 0.0;
  for (const double n : alloc.amounts) sum += n;
  if (sum > 0.0) {
    const double scale = total_load / sum;
    for (double& n : alloc.amounts) n *= scale;
  }
  finalize(alloc, total_load, alpha);
  return alloc;
}

NonlinearAllocation nonlinear_one_port_single_round(
    const platform::Platform& platform, double total_load, double alpha) {
  std::vector<std::size_t> order(platform.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  return nonlinear_one_port_single_round(platform, total_load, alpha, order);
}

double homogeneous_nonlinear_makespan(std::size_t p, double c, double w,
                                      double total_load, double alpha) {
  NLDL_REQUIRE(p >= 1, "p must be >= 1");
  NLDL_REQUIRE(c > 0.0 && w > 0.0, "c and w must be positive");
  NLDL_REQUIRE(std::isfinite(total_load) && total_load >= 0.0,
               "total_load must be finite and >= 0");
  NLDL_REQUIRE(alpha >= 1.0, "alpha must be >= 1");
  const double share = total_load / static_cast<double>(p);
  return share * c + w * power(share, alpha);
}

NonlinearAllocation nonlinear_single_round_for(
    sim::CommModelKind comm, const platform::Platform& platform,
    double total_load, double alpha) {
  if (comm == sim::CommModelKind::kOnePort) {
    return nonlinear_one_port_single_round(platform, total_load, alpha);
  }
  return nonlinear_parallel_single_round(platform, total_load, alpha);
}

}  // namespace nldl::dlt
