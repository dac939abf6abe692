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
  const Platform plat = Platform::homogeneous(p, 1.0, 1.0);
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
      const Platform plat = Platform::homogeneous(p, 1.0, 1.0);
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
    EXPECT_THROW((void)nonlinear_one_port_single_round(
                     plat, load, 2.0, std::vector<std::size_t>{1, 0}),
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
    const Platform plat = Platform::homogeneous(p, 1.0, 1.0);
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
    const Platform plat = Platform::homogeneous(p, 1.0, 1.0);
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
// solver without them: std::pow at every exponent, f evaluated at both ends
// of every bracket, one chunk solve per worker, and its own copy of the
// safeguarded Newton loop, inner and outer. Its outer derivative re-solves
// every chunk instead of reading the ones f just filled, and it re-fills the
// allocation at the root instead of keeping the last fill. The library must
// return the same NonlinearAllocation, bit for bit, iteration counts
// included.
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
  for (result.iterations = 0; result.iterations < opts.max_iterations;
       ++result.iterations) {
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

double marginal_cost(double c, double w, double alpha, double n) {
  return c + w * alpha * std::pow(n, alpha - 1.0);
}

double chunk_for_budget(double c, double w, double alpha, double budget) {
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

void finalize(NonlinearAllocation& alloc, double total_load, double alpha) {
  alloc.alpha = alpha;
  alloc.total_work = std::pow(total_load, alpha);
  alloc.work_done = 0.0;
  for (const double n : alloc.amounts) alloc.work_done += std::pow(n, alpha);
  alloc.remaining_fraction =
      alloc.total_work > 0.0 ? 1.0 - alloc.work_done / alloc.total_work : 0.0;
}

util::RootOptions outer_options(double t_hi, double total_load) {
  util::RootOptions opts;
  opts.x_tol = 1e-10 * t_hi;
  opts.f_tol = 1e-10 * total_load;
  opts.max_iterations = 200;
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
                              plat.w(i) * std::pow(total_load, alpha));
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
                       plat.w(i) * std::pow(alloc.amounts[i], alpha));
    }
  }
  finalize(alloc, total_load, alpha);
  return alloc;
}

NonlinearAllocation one_port(const Platform& plat, double total_load,
                             double alpha,
                             const std::vector<std::size_t>& send_order) {
  const std::size_t p = plat.size();
  NonlinearAllocation alloc;
  alloc.amounts.assign(p, 0.0);
  auto fill_for = [&](double T, std::vector<double>& amounts) {
    double clock = 0.0;
    double sum = 0.0;
    for (const std::size_t worker : send_order) {
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
    for (const std::size_t worker : send_order) {
      if (amounts[worker] <= 0.0) continue;
      const double dn =
          (1.0 - clock_rate) /
          marginal_cost(plat.c(worker), plat.w(worker), alpha, amounts[worker]);
      clock_rate += plat.c(worker) * dn;
      sum += dn;
    }
    return sum;
  };
  const std::size_t first = send_order[0];
  const double t_hi = plat.c(first) * total_load +
                      plat.w(first) * std::pow(total_load, alpha);
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
  platforms.emplace_back("single", Platform::homogeneous(1, 0.3, 2.0));
  platforms.emplace_back("homogeneous", Platform::homogeneous(7, 0.5, 1.5));
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

/// Fixed loads across 1e-3..1e4, then enough log-uniform ones that a
/// last-bit change in one x^2 evaluation (x*x for std::pow) reaches the
/// output in several cases.
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

std::vector<std::size_t> reversed_order(std::size_t p) {
  std::vector<std::size_t> order(p);
  for (std::size_t i = 0; i < p; ++i) order[i] = p - 1 - i;
  return order;
}

TEST(NonlinearFastPaths, MatchReferenceSolverBitForBit) {
  const std::vector<double> loads = oracle_loads();
  for (const auto& [name, plat] : oracle_platforms()) {
    const std::vector<std::size_t> forward = forward_order(plat.size());
    const std::vector<std::size_t> reversed = reversed_order(plat.size());
    for (const double alpha : {1.0, 1.5, 2.0, 3.0}) {
      for (const double load : loads) {
        SCOPED_TRACE(name + " alpha=" + std::to_string(alpha) +
                     " load=" + std::to_string(load));
        expect_same_outcome(
            plat.size(), load,
            [&] { return nonlinear_parallel_single_round(plat, load, alpha); },
            [&] { return reference::parallel(plat, load, alpha); });
        expect_same_outcome(
            plat.size(), load,
            [&] { return nonlinear_one_port_single_round(plat, load, alpha); },
            [&] { return reference::one_port(plat, load, alpha, forward); });
        expect_same_outcome(
            plat.size(), load,
            [&] {
              return nonlinear_one_port_single_round(plat, load, alpha,
                                                     reversed);
            },
            [&] { return reference::one_port(plat, load, alpha, reversed); });
      }
    }
  }
}

/// Every solve the Newton tests check, on oracle_platforms() × alpha ∈
/// {1, 1.5, 2, 3} × oracle_loads(): parallel links, then one-port in
/// forward and in reversed send order. `check` gets the platform, the send
/// order (empty for parallel links) and the allocation.
template <typename Check>
void for_each_oracle_solve(Check check) {
  const std::vector<double> loads = oracle_loads();
  for (const auto& [name, plat] : oracle_platforms()) {
    const std::vector<std::size_t> forward = forward_order(plat.size());
    const std::vector<std::size_t> reversed = reversed_order(plat.size());
    for (const double alpha : {1.0, 1.5, 2.0, 3.0}) {
      for (const double load : loads) {
        SCOPED_TRACE(name + " alpha=" + std::to_string(alpha) +
                     " load=" + std::to_string(load));
        check(plat, std::vector<std::size_t>{},
              nonlinear_parallel_single_round(plat, load, alpha));
        for (const std::vector<std::size_t>* order : {&forward, &reversed}) {
          check(plat, *order,
                nonlinear_one_port_single_round(plat, load, alpha, *order));
        }
      }
    }
  }
}

// The paper's Section 2 optimum gives every fed worker the same finish
// time. Newton on T stops on the load residual, which pins T far tighter
// than a stopping width of 1e-10·t_hi does when t_hi = c·N + w·N^alpha sits
// far above T. Below a unit budget each chunk solve stops at an absolute
// residual of 1e-12 (its f_tol), which bounds the spread of tiny makespans
// whatever the outer method; two such residuals are allowed on top.
TEST(NonlinearNewton, FedWorkersFinishTogether) {
  for_each_oracle_solve([](const Platform& plat,
                           const std::vector<std::size_t>& send_order,
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
    ASSERT_FALSE(finishes.empty());
    const auto [lo, hi] = std::minmax_element(finishes.begin(), finishes.end());
    EXPECT_LE(*hi - *lo, 1e-9 * *hi + 2e-12);
  });
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
