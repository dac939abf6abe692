// Unit + property tests for the nonlinear DLT allocators — the machinery
// behind the paper's Section 2 "no free lunch" theorem.
#include "dlt/nonlinear_dlt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dlt/analysis.hpp"
#include "dlt/linear_dlt.hpp"
#include "platform/speed_distributions.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/roots.hpp"

namespace nldl::dlt {
namespace {

using platform::Platform;

TEST(NonlinearParallel, HomogeneousMatchesClosedForm) {
  const std::size_t p = 8;
  const double alpha = 2.0;
  const double n = 100.0;
  const Platform plat = Platform::homogeneous(p, 1.0);
  const auto alloc = nonlinear_parallel_single_round(plat, n, alpha);
  for (const double amount : alloc.amounts) {
    EXPECT_NEAR(amount, n / static_cast<double>(p), 1e-6);
  }
  EXPECT_NEAR(alloc.makespan,
              homogeneous_nonlinear_makespan(p, 1.0, 1.0, n, alpha), 1e-6);
}

TEST(NonlinearParallel, RemainingFractionMatchesTheorem) {
  // (W − W_partial)/W = 1 − 1/p^(α−1) on homogeneous platforms.
  for (const std::size_t p : {2UL, 4UL, 16UL, 64UL}) {
    for (const double alpha : {1.5, 2.0, 3.0}) {
      const Platform plat = Platform::homogeneous(p, 1.0);
      const auto alloc = nonlinear_parallel_single_round(plat, 1000.0, alpha);
      EXPECT_NEAR(alloc.remaining_fraction,
                  remaining_fraction_homogeneous(p, alpha), 1e-6)
          << "p=" << p << " alpha=" << alpha;
    }
  }
}

TEST(NonlinearParallel, AlphaOneMatchesLinearClosedForm) {
  const Platform plat = Platform::from_speeds({1.0, 2.0, 5.0}, 0.5);
  const auto nonlinear = nonlinear_parallel_single_round(plat, 60.0, 1.0);
  const auto linear = linear_parallel_single_round(plat, 60.0);
  for (std::size_t i = 0; i < plat.size(); ++i) {
    EXPECT_NEAR(nonlinear.amounts[i], linear.amounts[i], 1e-6);
  }
  EXPECT_NEAR(nonlinear.makespan, linear.makespan, 1e-6);
  EXPECT_NEAR(nonlinear.remaining_fraction, 0.0, 1e-9);
}

TEST(NonlinearParallel, EqualFinishTimes) {
  const Platform plat = Platform::from_speeds({1.0, 3.0, 9.0}, 2.0);
  const double alpha = 2.5;
  const auto alloc = nonlinear_parallel_single_round(plat, 40.0, alpha);
  for (std::size_t i = 0; i < plat.size(); ++i) {
    const double finish =
        plat.c(i) * alloc.amounts[i] +
        plat.w(i) * std::pow(alloc.amounts[i], alpha);
    EXPECT_NEAR(finish, alloc.makespan, 1e-6 * alloc.makespan);
  }
}

TEST(NonlinearParallel, SimulatorConfirmsMakespan) {
  const Platform plat = Platform::from_speeds({2.0, 7.0}, 1.0);
  const double alpha = 2.0;
  const auto alloc = nonlinear_parallel_single_round(plat, 25.0, alpha);
  std::vector<sim::ChunkAssignment> schedule;
  for (std::size_t i = 0; i < alloc.amounts.size(); ++i) {
    schedule.push_back({i, alloc.amounts[i]});
  }
  const auto result = sim::Engine(plat, sim::EngineOptions{alpha})
                          .run(schedule, sim::CommModelKind::kParallelLinks);
  EXPECT_NEAR(result.makespan, alloc.makespan, 1e-6 * alloc.makespan);
  for (const double finish : result.worker_finish) {
    EXPECT_NEAR(finish, result.makespan, 1e-5 * result.makespan);
  }
}

TEST(NonlinearParallel, ZeroLoad) {
  const Platform plat = Platform::homogeneous(3);
  const auto alloc = nonlinear_parallel_single_round(plat, 0.0, 2.0);
  for (const double amount : alloc.amounts) EXPECT_EQ(amount, 0.0);
  EXPECT_EQ(alloc.makespan, 0.0);
}

TEST(NonlinearParallel, RejectsBadArguments) {
  const Platform plat = Platform::homogeneous(2);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)nonlinear_parallel_single_round(plat, -1.0, 2.0),
               util::PreconditionError);
  EXPECT_THROW((void)nonlinear_parallel_single_round(plat, 1.0, 0.5),
               util::PreconditionError);
  // Non-finite loads and exponents are caller errors, not root-finder
  // failures, on every solver entry point.
  for (const double load : {inf, nan}) {
    EXPECT_THROW((void)nonlinear_parallel_single_round(plat, load, 2.0),
                 util::PreconditionError);
    EXPECT_THROW((void)nonlinear_one_port_single_round(plat, load, 2.0),
                 util::PreconditionError);
  }
  for (const double alpha : {inf, nan}) {
    EXPECT_THROW((void)nonlinear_parallel_single_round(plat, 1.0, alpha),
                 util::PreconditionError);
    EXPECT_THROW((void)nonlinear_one_port_single_round(plat, 1.0, alpha),
                 util::PreconditionError);
  }
  // The closed form checks its load the same way.
  EXPECT_THROW((void)homogeneous_nonlinear_makespan(4, 1.0, 1.0, -5.0, 2.0),
               util::PreconditionError);
  EXPECT_THROW((void)homogeneous_nonlinear_makespan(4, 1.0, 1.0, nan, 2.0),
               util::PreconditionError);
  EXPECT_THROW((void)homogeneous_nonlinear_makespan(4, 1.0, 1.0, inf, 2.0),
               util::PreconditionError);
}

TEST(NonlinearOnePort, EqualFinishForFedWorkers) {
  const Platform plat = Platform::from_speeds({1.0, 2.0, 4.0}, 0.2);
  const double alpha = 2.0;
  const auto alloc = nonlinear_one_port_single_round(plat, 30.0, alpha);
  // Recompute finish times along the schedule.
  double clock = 0.0;
  for (std::size_t i = 0; i < plat.size(); ++i) {
    if (alloc.amounts[i] <= 0.0) continue;
    clock += plat.c(i) * alloc.amounts[i];
    const double finish =
        clock + plat.w(i) * std::pow(alloc.amounts[i], alpha);
    EXPECT_NEAR(finish, alloc.makespan, 1e-5 * alloc.makespan);
  }
}

TEST(NonlinearOnePort, MoreWorkersNeverHurtMakespan) {
  const double alpha = 2.0;
  double previous = std::numeric_limits<double>::infinity();
  for (const std::size_t p : {1UL, 2UL, 4UL, 8UL, 16UL}) {
    const Platform plat = Platform::homogeneous(p, 1.0);
    const auto alloc = nonlinear_one_port_single_round(plat, 50.0, alpha);
    EXPECT_LE(alloc.makespan, previous + 1e-6);
    previous = alloc.makespan;
  }
}

TEST(NonlinearOnePort, WorkDoneNeverExceedsTotal) {
  util::Rng rng(5);
  for (int rep = 0; rep < 10; ++rep) {
    const Platform plat = platform::make_platform(
        platform::SpeedModel::kLogNormal, 6, rng);
    const auto alloc = nonlinear_one_port_single_round(plat, 20.0, 2.0);
    EXPECT_GE(alloc.remaining_fraction, 0.0);
    EXPECT_LE(alloc.remaining_fraction, 1.0);
    EXPECT_LE(alloc.work_done, alloc.total_work * (1.0 + 1e-9));
  }
}

// The central claim of Section 2: as p grows, the DLT round covers a
// vanishing fraction of a quadratic workload — even with the optimal
// allocation, and under both communication models.
TEST(NoFreeLunch, RemainingFractionTendsToOne) {
  const double alpha = 2.0;
  double last_parallel = 0.0;
  for (const std::size_t p : {2UL, 8UL, 32UL, 128UL}) {
    const Platform plat = Platform::homogeneous(p, 1.0);
    const auto parallel =
        nonlinear_parallel_single_round(plat, 10000.0, alpha);
    EXPECT_GT(parallel.remaining_fraction, last_parallel);
    last_parallel = parallel.remaining_fraction;
  }
  EXPECT_GT(last_parallel, 0.99);  // 1 − 1/128 ≈ 0.992
}

// Property sweep: allocations are valid (non-negative, sum to N, equal
// finish) over random heterogeneous platforms and exponents.
class NonlinearAllocationProperty : public ::testing::TestWithParam<int> {};

TEST_P(NonlinearAllocationProperty, ParallelAllocationIsValid) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  const auto model = GetParam() % 2 == 0 ? platform::SpeedModel::kUniform
                                         : platform::SpeedModel::kLogNormal;
  const auto p =
      static_cast<std::size_t>(rng.uniform_int(2, 12));
  const Platform plat = platform::make_platform(model, p, rng);
  const double alpha = rng.uniform(1.1, 3.5);
  const double n = rng.uniform(1.0, 500.0);

  const auto alloc = nonlinear_parallel_single_round(plat, n, alpha);
  double total = 0.0;
  for (const double amount : alloc.amounts) {
    ASSERT_GE(amount, 0.0);
    total += amount;
  }
  EXPECT_NEAR(total, n, 1e-6 * n);
  for (std::size_t i = 0; i < plat.size(); ++i) {
    const double finish = plat.c(i) * alloc.amounts[i] +
                          plat.w(i) * std::pow(alloc.amounts[i], alpha);
    EXPECT_NEAR(finish, alloc.makespan, 1e-5 * alloc.makespan);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, NonlinearAllocationProperty,
                         ::testing::Range(0, 12));

// On one worker the makespan bracket [0, c·N + w·N^alpha] is tight: the
// whole load fits exactly at its top, and rounding in the chunk solve can
// leave Σ n_i just short of N there. Both solvers must widen the bracket
// and place the whole load on every draw, not reject valid input.
TEST(NonlinearOneWorker, BothSolversPlaceTheWholeLoad) {
  util::Rng rng(12345);
  for (const double alpha : {1.0, 1.5, 2.0, 3.0}) {
    for (int draw = 0; draw < 500; ++draw) {
      const double c = rng.uniform(0.01, 10.0);
      const double w = rng.uniform(0.01, 10.0);
      const double n = rng.uniform(0.1, 1000.0);
      SCOPED_TRACE("alpha=" + std::to_string(alpha) + " c=" +
                   std::to_string(c) + " w=" + std::to_string(w) +
                   " n=" + std::to_string(n));
      const Platform plat({{c, w}});
      const double alone = c * n + w * std::pow(n, alpha);
      for (const NonlinearAllocation& alloc :
           {nonlinear_parallel_single_round(plat, n, alpha),
            nonlinear_one_port_single_round(plat, n, alpha)}) {
        ASSERT_EQ(alloc.amounts.size(), 1U);
        EXPECT_NEAR(alloc.amounts[0], n, 1e-12 * n);
        EXPECT_NEAR(alloc.makespan, alone, 1e-9 * alone);
      }
    }
  }
}

// Bit-for-bit oracle for the solver's fast paths. `reference` is the
// solver without them: f evaluated at both ends of every bracket, one chunk
// solve per worker, and its own copy of the safeguarded Newton loop, inner
// and outer. Its outer derivative re-solves every chunk instead of reading
// the ones f just filled, and it re-fills the allocation at the root
// instead of keeping the last fill. Its arithmetic is the solver's: the
// closed-form chunks at alpha = 1 and alpha = 2, x * x for x^alpha at
// alpha = 2, and std::pow at every other exponent; at alpha = 1.5 and 3 it
// solves every chunk with newton_chunk. The library squares n^(alpha − 1)
// at alpha = 3 as x * x where the reference keeps std::pow(n, 2): the two
// differ in the last bit on ~0.08% of inputs, a differing derivative only
// nudges a Newton step, and on this grid no such nudge reaches the output.
// The library must return the same NonlinearAllocation, bit for bit,
// iteration counts included.
namespace reference {

template <typename F, typename DF>
util::RootResult newton(F&& f, DF&& df, double lo, double hi,
                        util::RootOptions opts) {
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return {lo, 0, true};
  if (fhi == 0.0) return {hi, 0, true};
  NLDL_REQUIRE(std::signbit(flo) != std::signbit(fhi),
               "reference Newton requires a sign change over [lo, hi]");
  double x = 0.5 * (lo + hi);
  util::RootResult result;
  for (result.iterations = 0; result.iterations < 200; ++result.iterations) {
    const double fx = f(x);
    if (std::abs(fx) <= opts.f_tol || (hi - lo) <= opts.x_tol) {
      result.x = x;
      result.converged = true;
      return result;
    }
    if (std::signbit(fx) == std::signbit(flo)) {
      lo = x;
      flo = fx;
    } else {
      hi = x;
    }
    const double dfx = df(x);
    double next = (dfx != 0.0) ? x - fx / dfx : lo - 1.0;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    x = next;
  }
  result.x = x;
  result.converged = false;
  return result;
}

/// x^alpha as the solver forms it: the correctly rounded square at
/// alpha = 2, std::pow at every other alpha.
double pow_alpha(double x, double alpha) {
  return alpha == 2.0 ? x * x : std::pow(x, alpha);
}

double marginal_cost(double c, double w, double alpha, double n) {
  return c + w * alpha * std::pow(n, alpha - 1.0);
}

/// The chunk solve from before the closed forms, at every alpha: the
/// safeguarded Newton on c·n + w·n^alpha = budget with std::pow throughout.
double newton_chunk(double c, double w, double alpha, double budget) {
  if (budget <= 0.0) return 0.0;
  const double hi = std::min(budget / c, std::pow(budget / w, 1.0 / alpha));
  auto f = [&](double n) { return c * n + w * std::pow(n, alpha) - budget; };
  auto df = [&](double n) { return marginal_cost(c, w, alpha, n); };
  double bracket_hi = hi;
  while (f(bracket_hi) < 0.0) bracket_hi *= 2.0;
  util::RootOptions opts;
  opts.f_tol = 1e-12 * std::max(1.0, budget);
  opts.x_tol = 1e-13 * std::max(1.0, bracket_hi);
  const auto result = newton(f, df, 0.0, bracket_hi, opts);
  EXPECT_TRUE(result.converged);
  return result.x;
}

/// The chunk the solver forms: the closed forms at alpha = 1 and alpha = 2,
/// written as the library writes them, and newton_chunk at every other
/// alpha.
double chunk_for_budget(double c, double w, double alpha, double budget) {
  if (budget <= 0.0) return 0.0;
  if (alpha == 1.0) return budget / (c + w);
  if (alpha == 2.0) {
    const double discriminant = c * c + 4.0 * w * budget;
    if (std::isfinite(discriminant)) {
      return 2.0 * (budget / (c + std::sqrt(discriminant)));
    }
  }
  return newton_chunk(c, w, alpha, budget);
}

void finalize(NonlinearAllocation& alloc, double total_load, double alpha) {
  alloc.alpha = alpha;
  alloc.total_work = pow_alpha(total_load, alpha);
  alloc.work_done = 0.0;
  for (const double n : alloc.amounts) alloc.work_done += pow_alpha(n, alpha);
  alloc.remaining_fraction =
      alloc.total_work > 0.0 ? 1.0 - alloc.work_done / alloc.total_work : 0.0;
}

util::RootOptions outer_options(double t_hi, double total_load) {
  util::RootOptions opts;
  opts.x_tol = 1e-10 * t_hi;
  opts.f_tol = 1e-10 * total_load;
  return opts;
}

NonlinearAllocation parallel(const Platform& plat, double total_load,
                             double alpha) {
  const std::size_t p = plat.size();
  NonlinearAllocation alloc;
  alloc.amounts.assign(p, 0.0);
  auto assigned_load = [&](double T) {
    double sum = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      sum += chunk_for_budget(plat.c(i), plat.w(i), alpha, T);
    }
    return sum;
  };
  // dN/dT = Σ 1/(c_i + alpha·w_i·n_i^(alpha−1)), with every n_i solved
  // again at T.
  auto slope = [&](double T) {
    double sum = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      const double n = chunk_for_budget(plat.c(i), plat.w(i), alpha, T);
      sum += 1.0 / marginal_cost(plat.c(i), plat.w(i), alpha, n);
    }
    return sum;
  };
  double t_hi = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < p; ++i) {
    t_hi = std::min(t_hi, plat.c(i) * total_load +
                              plat.w(i) * pow_alpha(total_load, alpha));
  }
  const auto f = [&](double T) { return assigned_load(T) - total_load; };
  const auto root =
      newton(f, slope, 0.0, t_hi, outer_options(t_hi, total_load));
  EXPECT_TRUE(root.converged);
  alloc.makespan = root.x;
  alloc.solver_iterations = root.iterations;
  for (std::size_t i = 0; i < p; ++i) {
    alloc.amounts[i] = chunk_for_budget(plat.c(i), plat.w(i), alpha, root.x);
  }
  const double sum = assigned_load(root.x);
  if (sum > 0.0) {
    const double scale = total_load / sum;
    for (double& n : alloc.amounts) n *= scale;
    alloc.makespan = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      alloc.makespan =
          std::max(alloc.makespan,
                   plat.c(i) * alloc.amounts[i] +
                       plat.w(i) * pow_alpha(alloc.amounts[i], alpha));
    }
  }
  finalize(alloc, total_load, alpha);
  return alloc;
}

NonlinearAllocation one_port(const Platform& plat, double total_load,
                             double alpha) {
  const std::size_t p = plat.size();
  NonlinearAllocation alloc;
  alloc.amounts.assign(p, 0.0);
  auto fill_for = [&](double T, std::vector<double>& amounts) {
    double clock = 0.0;
    double sum = 0.0;
    for (std::size_t worker = 0; worker < p; ++worker) {
      const double n = chunk_for_budget(plat.c(worker), plat.w(worker), alpha,
                                        T - clock);
      amounts[worker] = n;
      clock += plat.c(worker) * n;
      sum += n;
    }
    return sum;
  };
  // dn_i/dT = (1 − D_i)/(c_i + alpha·w_i·n_i^(alpha−1)) for every fed
  // worker, D_i = Σ_{j fed before i} c_j·dn_j, with the fill solved again
  // at T.
  auto slope = [&](double T) {
    std::vector<double> amounts(p, 0.0);
    fill_for(T, amounts);
    double clock_rate = 0.0;
    double sum = 0.0;
    for (std::size_t worker = 0; worker < p; ++worker) {
      if (amounts[worker] <= 0.0) continue;
      const double dn =
          (1.0 - clock_rate) /
          marginal_cost(plat.c(worker), plat.w(worker), alpha, amounts[worker]);
      clock_rate += plat.c(worker) * dn;
      sum += dn;
    }
    return sum;
  };
  const double t_hi =
      plat.c(0) * total_load + plat.w(0) * pow_alpha(total_load, alpha);
  std::vector<double> scratch(p, 0.0);
  const auto f = [&](double T) { return fill_for(T, scratch) - total_load; };
  const auto root =
      newton(f, slope, 0.0, t_hi, outer_options(t_hi, total_load));
  EXPECT_TRUE(root.converged);
  alloc.makespan = root.x;
  alloc.solver_iterations = root.iterations;
  fill_for(root.x, alloc.amounts);
  double sum = 0.0;
  for (const double n : alloc.amounts) sum += n;
  if (sum > 0.0) {
    const double scale = total_load / sum;
    for (double& n : alloc.amounts) n *= scale;
  }
  finalize(alloc, total_load, alpha);
  return alloc;
}

}  // namespace reference

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise_equal(const NonlinearAllocation& got,
                          const NonlinearAllocation& want) {
  ASSERT_EQ(got.amounts.size(), want.amounts.size());
  for (std::size_t i = 0; i < got.amounts.size(); ++i) {
    EXPECT_EQ(bits(got.amounts[i]), bits(want.amounts[i])) << "worker " << i;
  }
  EXPECT_EQ(bits(got.makespan), bits(want.makespan));
  EXPECT_EQ(bits(got.alpha), bits(want.alpha));
  EXPECT_EQ(bits(got.work_done), bits(want.work_done));
  EXPECT_EQ(bits(got.total_work), bits(want.total_work));
  EXPECT_EQ(bits(got.remaining_fraction), bits(want.remaining_fraction));
  EXPECT_EQ(got.solver_iterations, want.solver_iterations);
}

/// Runs both solves. Wherever the reference solves, the library returns
/// the same bits. On a single worker the outer bracket [0, c·N + w·N^alpha]
/// is tight, and rounding in the chunk solve can leave Σ n_i < N at its
/// top, so the reference rejects some (load, alpha) pairs there; the
/// library widens the bracket instead and must still place the whole load.
template <typename Fast, typename Slow>
void expect_same_outcome(std::size_t p, double load, Fast fast, Slow slow) {
  std::optional<NonlinearAllocation> want;
  try {
    want = slow();
  } catch (const util::PreconditionError&) {
    EXPECT_EQ(p, 1U) << "only a single worker's bracket is tight";
  }
  const NonlinearAllocation got = fast();
  if (want) {
    expect_bitwise_equal(got, *want);
    return;
  }
  double placed = 0.0;
  for (const double n : got.amounts) placed += n;
  EXPECT_NEAR(placed, load, 1e-12 * load);
}

/// Seeded platforms covering every shape the fast paths branch on.
std::vector<std::pair<std::string, Platform>> oracle_platforms() {
  std::vector<std::pair<std::string, Platform>> platforms;
  platforms.emplace_back("single", Platform({{0.3, 2.0}}));
  platforms.emplace_back(
      "homogeneous",
      Platform(std::vector<platform::Processor>(7, {0.5, 1.5})));
  platforms.emplace_back("two_class", Platform::two_class(8, 1.0, 4.0));
  platforms.emplace_back("two_class_16",
                         Platform::two_class(16, 0.7, 3.0, 0.2));
  util::Rng rng(20130520);
  using platform::SpeedModel;
  platforms.emplace_back(
      "uniform", platform::make_platform(SpeedModel::kUniform, 9, rng));
  platforms.emplace_back(
      "lognormal", platform::make_platform(SpeedModel::kLogNormal, 11, rng));
  // Repeats at non-adjacent indices, and neighbours that share w but not c
  // (or c but not w): only an exact (c, w) match may reuse a chunk.
  platforms.emplace_back(
      "interleaved", Platform({{1.0, 2.0}, {0.5, 1.0}, {1.0, 2.0}, {2.0, 2.0},
                               {0.5, 1.0}, {1.0, 0.5}, {1.0, 2.0}}));
  std::vector<platform::Processor> palette;
  for (int k = 0; k < 3; ++k) {
    palette.push_back({rng.uniform(0.1, 2.0), 1.0 / rng.lognormal(0.0, 1.0)});
  }
  std::vector<platform::Processor> scattered;
  for (int i = 0; i < 13; ++i) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(0, 2));
    scattered.push_back(palette[k]);
  }
  platforms.emplace_back("scattered", Platform(scattered));
  return platforms;
}

/// Fixed loads across 1e-3..1e4, then 60 log-uniform ones.
std::vector<double> oracle_loads() {
  util::Rng rng(20261016);
  std::vector<double> loads = {1e-3, 0.05, 1.0, 17.3, 640.0, 1e4};
  for (int k = 0; k < 60; ++k) {
    loads.push_back(std::pow(10.0, rng.uniform(-3.0, 4.0)));
  }
  return loads;
}

std::vector<std::size_t> forward_order(std::size_t p) {
  std::vector<std::size_t> order(p);
  for (std::size_t i = 0; i < p; ++i) order[i] = i;
  return order;
}

/// The platform with its workers in reverse order: the one-port solver
/// feeds workers in platform order, so this is the reversed send order.
Platform reversed(const Platform& plat) {
  return Platform(std::vector<platform::Processor>(plat.workers().rbegin(),
                                                   plat.workers().rend()));
}

TEST(NonlinearFastPaths, MatchReferenceSolverBitForBit) {
  const std::vector<double> loads = oracle_loads();
  for (const auto& [name, plat] : oracle_platforms()) {
    const Platform backward = reversed(plat);
    for (const double alpha : {1.0, 1.5, 2.0, 3.0}) {
      for (const double load : loads) {
        SCOPED_TRACE(name + " alpha=" + std::to_string(alpha) +
                     " load=" + std::to_string(load));
        expect_same_outcome(
            plat.size(), load,
            [&] { return nonlinear_parallel_single_round(plat, load, alpha); },
            [&] { return reference::parallel(plat, load, alpha); });
        for (const Platform* fed : {&plat, &backward}) {
          expect_same_outcome(
              plat.size(), load,
              [&] {
                return nonlinear_one_port_single_round(*fed, load, alpha);
              },
              [&] { return reference::one_port(*fed, load, alpha); });
        }
      }
    }
  }
}

/// Every solve the Newton tests check, on oracle_platforms() × alpha ∈
/// {1, 1.5, 2, 3} × oracle_loads(): parallel links, then one-port on the
/// platform and on its reversal. `check` gets the platform, the send order
/// (empty for parallel links) and the allocation.
template <typename Check>
void for_each_oracle_solve(Check check) {
  const std::vector<double> loads = oracle_loads();
  for (const auto& [name, plat] : oracle_platforms()) {
    const std::vector<std::size_t> forward = forward_order(plat.size());
    const Platform backward = reversed(plat);
    for (const double alpha : {1.0, 1.5, 2.0, 3.0}) {
      for (const double load : loads) {
        SCOPED_TRACE(name + " alpha=" + std::to_string(alpha) +
                     " load=" + std::to_string(load));
        check(plat, std::vector<std::size_t>{},
              nonlinear_parallel_single_round(plat, load, alpha));
        for (const Platform* fed : {&plat, &backward}) {
          check(*fed, forward,
                nonlinear_one_port_single_round(*fed, load, alpha));
        }
      }
    }
  }
}

/// The earliest and latest finish time over the workers `alloc` feeds, in
/// `send_order` under one-port (empty for parallel links).
std::pair<double, double> fed_finish_range(
    const Platform& plat, const std::vector<std::size_t>& send_order,
    const NonlinearAllocation& alloc) {
  std::vector<double> finishes;
  double clock = 0.0;  // one-port feed clock; stays 0 on parallel links
  for (std::size_t k = 0; k < plat.size(); ++k) {
    const std::size_t i = send_order.empty() ? k : send_order[k];
    const double n = alloc.amounts[i];
    if (n <= 0.0) continue;
    finishes.push_back(clock + plat.c(i) * n +
                       plat.w(i) * std::pow(n, alloc.alpha));
    if (!send_order.empty()) clock += plat.c(i) * n;
  }
  EXPECT_FALSE(finishes.empty());
  if (finishes.empty()) return {0.0, 0.0};
  const auto [lo, hi] = std::minmax_element(finishes.begin(), finishes.end());
  return {*lo, *hi};
}

// The paper's Section 2 optimum gives every fed worker the same finish
// time. Newton on T stops on the load residual, which pins T far tighter
// than a stopping width of 1e-10·t_hi does when t_hi = c·N + w·N^alpha sits
// far above T. Below a unit budget each Newton chunk solve stops at an
// absolute residual of 1e-12 (its f_tol), which bounds the spread of tiny
// makespans whatever the outer method; two such residuals are allowed on
// top.
TEST(NonlinearNewton, FedWorkersFinishTogether) {
  for_each_oracle_solve([](const Platform& plat,
                           const std::vector<std::size_t>& send_order,
                           const NonlinearAllocation& alloc) {
    const auto [lo, hi] = fed_finish_range(plat, send_order, alloc);
    EXPECT_LE(hi - lo, 1e-9 * hi + 2e-12);
  });
}

// At alpha = 1 and 2 each chunk is its closed-form root, exact to a few
// ULPs at any budget, so what separates the finish times is only the
// outer solve's load residual (at most 1e-10·N, rescaled onto every
// chunk): the spread stays within 1e-10·T, with no absolute term for tiny
// makespans.
TEST(NonlinearClosedForms, FedWorkersFinishWithinATenBillionthOfT) {
  for_each_oracle_solve([](const Platform& plat,
                           const std::vector<std::size_t>& send_order,
                           const NonlinearAllocation& alloc) {
    if (alloc.alpha != 1.0 && alloc.alpha != 2.0) return;
    const auto [lo, hi] = fed_finish_range(plat, send_order, alloc);
    EXPECT_LE(hi - lo, 1e-10 * hi);
  });
}

// The quadratic closed form against the Newton chunk solve it replaced, on
// 10^5 generated (c, w, budget): the root's residual stays within 1e-15 of
// the budget, where Newton stops at 1e-12·max(1, budget), and the two roots
// agree to 1e-9. The residual is taken in long double, so it measures the
// root rather than the check's own rounding. The formula is the reference
// solver's, which MatchReferenceSolverBitForBit ties to the library's bits.
TEST(NonlinearClosedForms, QuadraticRootIsAccurate) {
  util::Rng rng(20261017);
  double worst_residual = 0.0;
  double worst_gap = 0.0;
  for (int k = 0; k < 100000; ++k) {
    const double c = std::pow(10.0, rng.uniform(-2.0, 1.0));
    const double w = std::pow(10.0, rng.uniform(-2.0, 1.0));
    const double budget = std::pow(10.0, rng.uniform(-3.0, 6.0));
    const double n = reference::chunk_for_budget(c, w, 2.0, budget);
    const long double root = n;
    const long double residual =
        std::fabs(static_cast<long double>(c) * root +
                  static_cast<long double>(w) * root * root -
                  static_cast<long double>(budget));
    worst_residual =
        std::max(worst_residual, static_cast<double>(residual / budget));
    const double newton = reference::newton_chunk(c, w, 2.0, budget);
    worst_gap = std::max(worst_gap, std::abs(n - newton) / newton);
  }
  EXPECT_LE(worst_residual, 1e-15);
  EXPECT_LE(worst_gap, 1e-9);
}

// Where a closed form's intermediate overflows it would starve the worker:
// c + w = inf reads B/(c + w) = 0 at alpha = 1, and c² = inf reads
// 2·B/(c + inf) = 0 at alpha = 2. The solver falls back to the Newton chunk
// there.
TEST(NonlinearClosedForms, FallBackToNewtonWhereTheClosedFormOverflows) {
  // alpha = 2: worker 0 (c = 1e155 or 1e200, w = 1e155) holds n with
  // w·n² ≈ T ≈ 1e300, n = 3.1622776601683791e72 as before the closed forms.
  // One-port feeds the (1, 1) worker first, placed at index 0 there: its
  // bracket is the first worker's time for the whole load, which overflows
  // for the other worker.
  const double want = 3.1622776601683791e72;
  for (const double c : {1e155, 1e200}) {
    SCOPED_TRACE("c=" + std::to_string(c));
    const NonlinearAllocation links = nonlinear_parallel_single_round(
        Platform({{c, 1e155}, {1.0, 1.0}}), 1e150, 2.0);
    const NonlinearAllocation port = nonlinear_one_port_single_round(
        Platform({{1.0, 1.0}, {c, 1e155}}), 1e150, 2.0);
    EXPECT_NEAR(links.amounts[0], want, 1e-9 * want);
    EXPECT_NEAR(port.amounts[1], want, 1e-9 * want);
    for (const NonlinearAllocation* alloc : {&links, &port}) {
      EXPECT_NEAR(alloc->amounts[0] + alloc->amounts[1], 1e150,
                  1e-12 * 1e150);
    }
  }
  // alpha = 1: worker 0 (c = w = 1e308) holds T/(c + w) ≈ 1e-208.
  const Platform plat({{1e308, 1e308}, {1.0, 1.0}});
  const NonlinearAllocation alloc =
      nonlinear_parallel_single_round(plat, 1e100, 1.0);
  const double linear = alloc.makespan / 1e308 / 2.0;
  EXPECT_NEAR(alloc.amounts[0], linear, 1e-9 * linear);
}

// x^2 is x * x in every place the solver squares: the total work, the work
// done and the rescaled makespan. glibc's pow(x, 2) differs from x * x on
// ~0.08% of inputs, so over 20,000 loads a std::pow square would show.
// The oracle grid above cannot see this: none of its loads and chunks
// happens to be such an input.
TEST(NonlinearClosedForms, SquaresAreCorrectlyRounded) {
  const Platform plat({{0.5, 1.0}, {1.5, 0.25}});
  util::Rng rng(20261018);
  for (int k = 0; k < 20000; ++k) {
    const double load = std::pow(10.0, rng.uniform(-3.0, 6.0));
    const NonlinearAllocation alloc =
        nonlinear_parallel_single_round(plat, load, 2.0);
    double work_done = 0.0;
    double makespan = 0.0;
    for (std::size_t i = 0; i < plat.size(); ++i) {
      const double n = alloc.amounts[i];
      work_done += n * n;
      makespan = std::max(makespan, plat.c(i) * n + plat.w(i) * (n * n));
    }
    ASSERT_EQ(bits(alloc.total_work), bits(load * load)) << load;
    ASSERT_EQ(bits(alloc.work_done), bits(work_done)) << load;
    ASSERT_EQ(bits(alloc.makespan), bits(makespan)) << load;
  }
}

// Loads from the smallest subnormal to DBL_MAX, on platforms whose c and w
// run from 1e-10 to 1e10: every solve either places the whole load in
// finite, non-negative chunks or throws PreconditionError. Never a hang (a
// bracket end that underflowed to 0 used to double forever), an
// InvariantError from a solve that cannot converge, or a misleading "sign
// change" error from an overflowed bracket. Subnormal loads are always
// rejected; a unit load always solves.
TEST(NonlinearDomain, EveryLoadIsPlacedOrRejected) {
  const double loads[] = {std::ldexp(1.0, -1074),
                          1e-320,
                          1e-305,
                          std::numeric_limits<double>::min(),
                          1.0,
                          1e300,
                          std::numeric_limits<double>::max()};
  const double scales[] = {1e-10, 1.0, 1e10};
  for (const double load : loads) {
    for (const double c : scales) {
      for (const double w : scales) {
        const Platform plat({{c, w}, {c, 2.0 * w}});
        for (const double alpha : {1.0, 1.5, 2.0, 3.0}) {
          for (const bool one_port : {false, true}) {
            SCOPED_TRACE("load=" + std::to_string(load) +
                         " c=" + std::to_string(c) +
                         " w=" + std::to_string(w) +
                         " alpha=" + std::to_string(alpha) +
                         (one_port ? " one-port" : " parallel"));
            std::optional<NonlinearAllocation> alloc;
            try {
              alloc = one_port
                          ? nonlinear_one_port_single_round(plat, load, alpha)
                          : nonlinear_parallel_single_round(plat, load, alpha);
            } catch (const util::PreconditionError&) {
              EXPECT_NE(load, 1.0) << "a unit load must solve";
              continue;
            }
            EXPECT_GE(load, std::numeric_limits<double>::min())
                << "a subnormal load must be rejected";
            EXPECT_TRUE(std::isfinite(alloc->makespan));
            long double placed = 0.0L;
            for (const double n : alloc->amounts) {
              EXPECT_TRUE(std::isfinite(n) && n >= 0.0) << n;
              placed += n;
            }
            EXPECT_LE(std::fabs(placed - static_cast<long double>(load)),
                      1e-12L * load);
          }
        }
      }
    }
  }
}

// Workers whose c and w lie 10^200 and more apart, on normal loads: one
// bound of a chunk's bracket, budget/c or (budget/w)^(1/alpha),
// underflows to 0, and the growth loop that used to double it stayed at 0
// forever. Each solve now places the whole load.
TEST(NonlinearDomain, ABracketEndThatUnderflowsStillGrows) {
  struct Case {
    platform::Processor first;
    platform::Processor second;
    double load;
    double alpha;
    bool one_port;
  };
  const Case cases[] = {
      {{4.27743e152, 3.80822e269}, {2.80911e-230, 1.40574e235},
       5.79346e-216, 1.5, false},
      {{6.19114e-228, 5.78976e-128}, {1.54618e-243, 3.9135e111},
       7.69738e-34, 3.0, true},
      {{4.07299e-73, 1.33236e226}, {1.11873e-274, 3.54746e8},
       7.04125e-159, 1.5, false},
      {{2.24595e-144, 1.09664e25}, {1.34956e220, 1.59593e87},
       6.58032e-204, 1.5, true},
      {{6.53913e95, 3.30658e166}, {8.71742e278, 1.31577e-243},
       1.2716e-291, 1.5, true}};
  for (const Case& k : cases) {
    SCOPED_TRACE("load=" + std::to_string(k.load) +
                 (k.one_port ? " one-port" : " parallel"));
    const Platform plat({k.first, k.second});
    const NonlinearAllocation alloc =
        k.one_port ? nonlinear_one_port_single_round(plat, k.load, k.alpha)
                   : nonlinear_parallel_single_round(plat, k.load, k.alpha);
    EXPECT_NEAR(alloc.amounts[0] + alloc.amounts[1], k.load, 1e-12 * k.load);
  }
}

// Newton converges quadratically on the concave Σ n_i(T), so a handful of
// outer steps reach the 1e-10 load residual.
TEST(NonlinearNewton, FewOuterIterations) {
  int parallel_solves = 0;
  int parallel_iterations = 0;
  int one_port_solves = 0;
  int one_port_iterations = 0;
  for_each_oracle_solve([&](const Platform&,
                            const std::vector<std::size_t>& send_order,
                            const NonlinearAllocation& alloc) {
    if (send_order.empty()) {
      ++parallel_solves;
      parallel_iterations += alloc.solver_iterations;
    } else {
      ++one_port_solves;
      one_port_iterations += alloc.solver_iterations;
    }
  });
  const double parallel_mean =
      static_cast<double>(parallel_iterations) / parallel_solves;
  const double one_port_mean =
      static_cast<double>(one_port_iterations) / one_port_solves;
  EXPECT_LE(parallel_mean, 8.0);
  EXPECT_LE(one_port_mean, 8.0);
}

// The solver skips std::pow at exponents 0 and 1 on the strength of two
// libm identities. Pin them over edge values, so a libm that breaks them
// fails here rather than as a payload diff. The exponents pass through
// volatiles so the compiler cannot fold the calls away.
TEST(NonlinearFastPaths, LibmPowIdentitiesHold) {
  volatile double zero = 0.0;
  volatile double negative_zero = -0.0;
  volatile double one = 1.0;
  std::vector<double> xs = {0.0,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::epsilon(),
                            std::numeric_limits<double>::infinity(),
                            1e300,
                            1e-300,
                            0.1,
                            1.0 / 3.0,
                            9007199254740993.0};
  for (int e = std::numeric_limits<double>::min_exponent - 53;
       e < std::numeric_limits<double>::max_exponent; ++e) {
    xs.push_back(std::ldexp(1.0, e));
  }
  for (int k = 1; k <= 1000; ++k) xs.push_back(static_cast<double>(k));
  const std::size_t positives = xs.size();
  for (std::size_t i = 0; i < positives; ++i) xs.push_back(-xs[i]);
  for (const double x : xs) {
    EXPECT_EQ(bits(std::pow(x, one)), bits(x)) << x;
    EXPECT_EQ(bits(std::pow(x, zero)), bits(1.0)) << x;
    EXPECT_EQ(bits(std::pow(x, negative_zero)), bits(1.0)) << x;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(bits(std::pow(nan, zero)), bits(1.0));
  EXPECT_EQ(bits(std::pow(nan, one)), bits(nan));
}

}  // namespace
}  // namespace nldl::dlt
