// Unit + property tests for the nonlinear DLT allocators — the machinery
// behind the paper's Section 2 "no free lunch" theorem.
#include "dlt/nonlinear_dlt.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dlt/analysis.hpp"
#include "dlt/linear_dlt.hpp"
#include "platform/speed_distributions.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

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
  EXPECT_THROW((void)nonlinear_parallel_single_round(plat, -1.0, 2.0),
               util::PreconditionError);
  EXPECT_THROW((void)nonlinear_parallel_single_round(plat, 1.0, 0.5),
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

}  // namespace
}  // namespace nldl::dlt
