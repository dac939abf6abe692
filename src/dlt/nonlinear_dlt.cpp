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

namespace {

constexpr double kSmallestNormal = std::numeric_limits<double>::min();

/// x^e, without std::pow at the three exponents with an exact or correctly
/// rounded shortcut: pow(x, ±0) = 1 for every x (C Annex F); pow(x, 1) = x
/// (for x that is not a power of two glibc's sub-ULP error bound leaves x as
/// the only candidate; NonlinearFastPaths.LibmPowIdentitiesHold pins every
/// power of two plus ±0, ±inf and NaN); and x^2 = x * x, the correctly
/// rounded square, where glibc's pow is one ULP off on ~0.08% of inputs.
/// Every other exponent is std::pow's.
double power(double x, double e) {
  if (e == 0.0) return 1.0;
  if (e == 1.0) return x;  // nldl-lint: allow(double-eq): exact exponent 1, where pow(x, 1) == x bit for bit
  if (e == 2.0) return x * x;  // nldl-lint: allow(double-eq): exact exponent 2, whose correctly rounded value is x * x
  return std::pow(x, e);
}

/// The inputs every solver shares: a finite load that is 0 or a normal
/// double, and a finite alpha >= 1. A subnormal load has too few
/// significant bits to split, and the solvers' tolerances scale with it.
void require_solver_inputs(double total_load, double alpha) {
  NLDL_REQUIRE(std::isfinite(total_load) && total_load >= 0.0,
               "total_load must be finite and >= 0");
  NLDL_REQUIRE(std::isfinite(alpha) && alpha >= 1.0,
               "alpha must be finite and >= 1");
  NLDL_REQUIRE(total_load == 0.0 || total_load >= kSmallestNormal,
               "total_load is subnormal (below DBL_MIN): too few significant "
               "bits to split");
}

/// The makespan bracket t_hi, one worker's time c·N + w·N^alpha for the
/// whole load, must be a finite normal double: past DBL_MAX (N^alpha or the
/// sum overflows) the solve has no upper end, and below DBL_MIN the makespan
/// has too few significant bits to stop on.
void require_makespan_bracket(double t_hi) {
  NLDL_REQUIRE(std::isfinite(t_hi),
               "c*N + w*N^alpha overflows double precision: the load is too "
               "large for this platform and alpha");
  NLDL_REQUIRE(t_hi >= kSmallestNormal,
               "c*N + w*N^alpha is subnormal (below DBL_MIN): the load is too "
               "small for this platform and alpha");
}

/// The next upper end of a bracket whose f is still negative there: twice
/// hi, and never below the smallest subnormal, so an end that underflowed to
/// 0 grows back instead of doubling 0 forever.
double grow_bracket(double hi) {
  return std::max(2.0 * hi, std::numeric_limits<double>::denorm_min());
}

/// d(c·n + w·n^alpha)/dn: the time one more load unit costs a worker that
/// already holds n. Its reciprocal is how fast the chunk grows with the
/// worker's budget.
double marginal_cost(double c, double w, double alpha, double n) {
  return c + w * alpha * power(n, alpha - 1.0);
}

/// Solve c·n + w·n^alpha = budget for n >= 0 (unique root; 0 if budget <= 0).
/// alpha = 1 and alpha = 2 have closed forms. Every other alpha runs the
/// safeguarded Newton, as do alpha = 1 where c + w overflows and alpha = 2
/// where c² + 4·w·budget does.
double chunk_for_budget(double c, double w, double alpha, double budget) {
  if (budget <= 0.0) return 0.0;
  if (alpha == 1.0) {  // nldl-lint: allow(double-eq): exact exponent 1 selects the linear closed form
    const double unit_cost = c + w;
    if (std::isfinite(unit_cost)) return budget / unit_cost;
  } else if (alpha == 2.0) {  // nldl-lint: allow(double-eq): exact exponent 2 selects the quadratic closed form
    // The positive root of w·n² + c·n − budget, written as
    // 2·budget / (c + √(c² + 4·w·budget)) so that nothing cancels: the
    // textbook (√(c² + 4·w·budget) − c) / (2·w) loses every digit once
    // 4·w·budget is small next to c².
    const double discriminant = c * c + 4.0 * w * budget;
    if (std::isfinite(discriminant)) {
      return 2.0 * (budget / (c + std::sqrt(discriminant)));
    }
  }
  auto f = [&](double n) { return c * n + w * power(n, alpha) - budget; };
  auto df = [&](double n) { return marginal_cost(c, w, alpha, n); };
  // Upper bracket: n <= budget / c (communication alone) and
  // n <= (budget / w)^(1/alpha) (computation alone). In exact arithmetic f
  // >= 0 at either bound, hence at their min; the growth loop only absorbs
  // rounding that leaves f(hi) just below zero, or a bound that underflowed.
  double hi = std::min(budget / c, power(budget / w, 1.0 / alpha));
  double fhi = f(hi);
  while (fhi < 0.0) {
    hi = grow_bracket(hi);
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

/// Solve f(T) = Σ n_i(T) − N = 0 for the makespan T by Newton on T,
/// safeguarded by the bracket [0, t_hi]. f(0) is exactly −N: every chunk is
/// 0 at a zero budget. t_hi holds the whole load in exact arithmetic, but a
/// tight bracket (one worker) can leave f(t_hi) just below zero after
/// rounding in the chunk solves, so t_hi grows until f turns non-negative.
/// df is the exact dN/dT at the T of the f call just before it.
template <typename F, typename DF>
util::RootResult solve_makespan(F&& f, DF&& df, double total_load,
                                double t_hi) {
  require_makespan_bracket(t_hi);
  double f_hi = f(t_hi);
  while (f_hi < 0.0) {
    t_hi = grow_bracket(t_hi);
    f_hi = f(t_hi);
  }
  util::RootOptions opts;
  opts.x_tol = 1e-10 * t_hi;
  opts.f_tol = 1e-10 * total_load;
  return util::newton_safeguarded(f, df, 0.0, t_hi, -total_load, f_hi, opts);
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

  // Writes every n_i(T) into alloc.amounts and their sum, in worker order,
  // into `filled`. n_i(T) depends only on (c_i, w_i, alpha, T), so a worker
  // identical to the one before it copies that worker's chunk instead of
  // solving again.
  double filled = 0.0;
  auto f = [&](double T) {
    filled = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      alloc.amounts[i] =
          i > 0 && same_bits(workers[i], workers[i - 1])
              ? alloc.amounts[i - 1]
              : chunk_for_budget(workers[i].c, workers[i].w, alpha, T);
      filled += alloc.amounts[i];
    }
    return filled - total_load;
  };
  // dN/dT = Σ dn_i/dT over the chunks f just filled; identical neighbours
  // share a slope as they share a chunk.
  auto df = [&](double /*T*/) {
    double slope = 0.0;
    double term = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      if (i == 0 || !same_bits(workers[i], workers[i - 1])) {
        term = 1.0 / marginal_cost(workers[i].c, workers[i].w, alpha,
                                   alloc.amounts[i]);
      }
      slope += term;
    }
    return slope;
  };

  // Upper bound: any single worker processing the whole load alone finishes
  // by T = c·N + w·N^alpha, so Σ n_i(T) >= N there in exact arithmetic.
  const double total_pow = power(total_load, alpha);
  double t_hi = std::numeric_limits<double>::infinity();
  for (const platform::Processor& worker : workers) {
    t_hi = std::min(t_hi, worker.c * total_load + worker.w * total_pow);
  }

  // Σ n_i(T) is continuous, strictly increasing and concave in T.
  const auto root = solve_makespan(f, df, total_load, t_hi);
  NLDL_ASSERT(root.converged, "nonlinear outer Newton did not converge");

  // The solve's last f call was at root.x, so alloc.amounts and `filled`
  // hold that fill. Rescale the tiny residual so Σ n_i == total_load
  // exactly.
  alloc.makespan = root.x;
  alloc.solver_iterations = root.iterations;
  if (filled > 0.0) {
    const double scale = total_load / filled;
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
    const platform::Platform& platform, double total_load, double alpha) {
  require_solver_inputs(total_load, alpha);
  const std::size_t p = platform.size();

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
  auto f = [&](double T) {
    double clock = 0.0;  // master port becomes free
    double sum = 0.0;
    for (std::size_t worker = 0; worker < p; ++worker) {
      const double budget = T - clock;
      const double n = chunk_for_budget(workers[worker].c, workers[worker].w,
                                        alpha, budget);
      alloc.amounts[worker] = n;
      clock += workers[worker].c * n;
      sum += n;
    }
    return sum - total_load;
  };
  // dN/dT over the chunks f just filled. Worker i's budget T − τ_i grows at
  // 1 − D_i, where D_i = Σ_{j fed before i} c_j·dn_j is the feed clock's
  // own rate. A worker left without budget (n_i = 0) contributes nothing.
  auto df = [&](double /*T*/) {
    double clock_rate = 0.0;
    double slope = 0.0;
    for (std::size_t worker = 0; worker < p; ++worker) {
      const double n = alloc.amounts[worker];
      if (n <= 0.0) continue;
      const double dn = (1.0 - clock_rate) /
                        marginal_cost(workers[worker].c, workers[worker].w,
                                      alpha, n);
      clock_rate += workers[worker].c * dn;
      slope += dn;
    }
    return slope;
  };

  // The first worker alone takes the whole load by c·N + w·N^alpha.
  const double t_hi =
      workers[0].c * total_load + workers[0].w * power(total_load, alpha);

  const auto root = solve_makespan(f, df, total_load, t_hi);
  NLDL_ASSERT(root.converged, "one-port outer Newton did not converge");

  // The solve's last f call was at root.x, so alloc.amounts holds that
  // fill. Rescale the residual onto the allocation (keeps Σ n_i exact; the
  // perturbation of finish times is within solver tolerance).
  alloc.makespan = root.x;
  alloc.solver_iterations = root.iterations;
  double sum = 0.0;
  for (const double n : alloc.amounts) sum += n;
  if (sum > 0.0) {
    const double scale = total_load / sum;
    for (double& n : alloc.amounts) n *= scale;
  }
  finalize(alloc, total_load, alpha);
  return alloc;
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
