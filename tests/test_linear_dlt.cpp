// Unit + property tests for the classical linear DLT allocators.
#include "dlt/linear_dlt.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "platform/speed_distributions.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nldl::dlt {
namespace {

using platform::Platform;

TEST(LinearParallel, HomogeneousSplitsEvenly) {
  const Platform plat = Platform::homogeneous(4, 1.0);
  const Allocation alloc = linear_parallel_single_round(plat, 100.0);
  for (const double n : alloc.amounts) {
    EXPECT_DOUBLE_EQ(n, 25.0);
  }
  EXPECT_DOUBLE_EQ(alloc.makespan, 50.0);  // (c + w) · 25
  EXPECT_DOUBLE_EQ(alloc.total(), 100.0);
}

TEST(LinearParallel, AllWorkersFinishSimultaneously) {
  const Platform plat = Platform::from_speeds({1.0, 3.0, 7.0}, 2.0);
  const Allocation alloc = linear_parallel_single_round(plat, 42.0);
  for (std::size_t i = 0; i < plat.size(); ++i) {
    const double finish =
        (plat.c(i) + plat.w(i)) * alloc.amounts[i];
    EXPECT_NEAR(finish, alloc.makespan, 1e-9);
  }
  EXPECT_NEAR(alloc.total(), 42.0, 1e-9);
}

TEST(LinearParallel, SimulatorConfirmsPrediction) {
  const Platform plat = Platform::from_speeds({2.0, 5.0}, 0.5);
  const Allocation alloc = linear_parallel_single_round(plat, 10.0);
  const auto result = sim::Engine(plat).run(
      alloc.to_schedule(), sim::CommModelKind::kParallelLinks);
  EXPECT_NEAR(result.makespan, alloc.makespan, 1e-9);
  // Every worker must finish at the makespan (optimality condition).
  for (const double finish : result.worker_finish) {
    EXPECT_NEAR(finish, result.makespan, 1e-9);
  }
}

TEST(LinearOnePort, ChainRelationHolds) {
  const Platform plat = Platform::from_speeds({1.0, 2.0, 4.0}, 1.0);
  const Allocation alloc = linear_one_port_single_round(plat, 30.0);
  // w_i · n_i = (c_{i+1} + w_{i+1}) · n_{i+1} along the send order.
  for (std::size_t i = 0; i + 1 < plat.size(); ++i) {
    EXPECT_NEAR(plat.w(i) * alloc.amounts[i],
                (plat.c(i + 1) + plat.w(i + 1)) * alloc.amounts[i + 1],
                1e-9);
  }
  EXPECT_NEAR(alloc.total(), 30.0, 1e-9);
}

TEST(LinearOnePort, SimulatorShowsSimultaneousFinish) {
  const Platform plat = Platform::from_speeds({3.0, 1.0, 2.0}, 0.7);
  const Allocation alloc = linear_one_port_single_round(plat, 50.0);
  const auto result = sim::Engine(plat).run(alloc.to_schedule(),
                                            sim::CommModelKind::kOnePort);
  for (const double finish : result.worker_finish) {
    EXPECT_NEAR(finish, result.makespan, 1e-8);
  }
  EXPECT_NEAR(result.makespan, alloc.makespan, 1e-8);
}

TEST(LinearOnePort, CustomOrderIsRespected) {
  const Platform plat = Platform::from_speeds({1.0, 10.0}, 1.0);
  const std::vector<std::size_t> order{1, 0};
  const Allocation alloc = linear_one_port_single_round(plat, 10.0, order);
  const auto result = sim::Engine(plat).run(alloc.to_schedule(order),
                                            sim::CommModelKind::kOnePort);
  for (const double finish : result.worker_finish) {
    EXPECT_NEAR(finish, result.makespan, 1e-8);
  }
}

TEST(LinearOnePort, RejectsBadOrder) {
  const Platform plat = Platform::homogeneous(3);
  EXPECT_THROW(
      (void)linear_one_port_single_round(plat, 1.0, {0, 1}),
      util::PreconditionError);
  EXPECT_THROW(
      (void)linear_one_port_single_round(plat, 1.0, {0, 1, 1}),
      util::PreconditionError);
  EXPECT_THROW(
      (void)linear_one_port_single_round(plat, 1.0, {0, 1, 3}),
      util::PreconditionError);
}

TEST(OnePortOptimalOrder, SortsByBandwidth) {
  std::vector<platform::Processor> workers{
      {3.0, 1.0}, {1.0, 1.0}, {2.0, 1.0}};
  const Platform plat{std::move(workers)};
  const auto order = one_port_optimal_order(plat);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(OnePortOptimalOrder, BeatsOrEqualsReversedOrder) {
  util::Rng rng(1234);
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<platform::Processor> workers;
    for (int i = 0; i < 5; ++i) {
      workers.push_back(
          {rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)});
    }
    const Platform plat{std::move(workers)};
    const auto good = one_port_optimal_order(plat);
    auto bad = good;
    std::reverse(bad.begin(), bad.end());
    const double t_good =
        linear_one_port_single_round(plat, 100.0, good).makespan;
    const double t_bad =
        linear_one_port_single_round(plat, 100.0, bad).makespan;
    EXPECT_LE(t_good, t_bad + 1e-9);
  }
}

TEST(MultiRound, SplitsIntoEqualPieces) {
  Allocation alloc;
  alloc.amounts = {8.0, 4.0};
  const auto schedule = multi_round_schedule(alloc, 4);
  ASSERT_EQ(schedule.size(), 8U);
  EXPECT_DOUBLE_EQ(schedule[0].size, 2.0);
  EXPECT_DOUBLE_EQ(schedule[1].size, 1.0);
  double total = 0.0;
  for (const auto& chunk : schedule) total += chunk.size;
  EXPECT_DOUBLE_EQ(total, 12.0);
}

TEST(MultiRound, ReducesRampUpOnOnePort) {
  // With one-port comms and several workers, multi-round lets late workers
  // start earlier, never hurting the makespan for linear loads.
  const Platform plat = Platform::from_speeds({1.0, 1.0, 1.0}, 1.0);
  const Allocation alloc = linear_one_port_single_round(plat, 30.0);
  const sim::Engine engine(plat);
  const double single =
      engine.run(alloc.to_schedule(), sim::CommModelKind::kOnePort).makespan;
  const double multi = engine
                           .run(multi_round_schedule(alloc, 8),
                                sim::CommModelKind::kOnePort)
                           .makespan;
  EXPECT_LE(multi, single + 1e-9);
}

// Property sweep: the parallel-links closed form is optimal — no transfer
// of load between any pair of workers can reduce the makespan.
class LinearOptimalityProperty : public ::testing::TestWithParam<int> {};

TEST_P(LinearOptimalityProperty, PerturbationNeverImproves) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const platform::Platform plat =
      platform::make_platform(platform::SpeedModel::kUniform, 6, rng);
  const Allocation alloc = linear_parallel_single_round(plat, 100.0);

  auto makespan_of = [&](const std::vector<double>& amounts) {
    double worst = 0.0;
    for (std::size_t i = 0; i < amounts.size(); ++i) {
      worst = std::max(worst,
                       (plat.c(i) + plat.w(i)) * amounts[i]);
    }
    return worst;
  };

  const double base = makespan_of(alloc.amounts);
  for (int rep = 0; rep < 30; ++rep) {
    auto perturbed = alloc.amounts;
    const auto from = static_cast<std::size_t>(rng.uniform_int(0, 5));
    const auto to = static_cast<std::size_t>(rng.uniform_int(0, 5));
    if (from == to) continue;
    const double delta = rng.uniform(0.0, perturbed[from]);
    perturbed[from] -= delta;
    perturbed[to] += delta;
    EXPECT_GE(makespan_of(perturbed), base - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPlatforms, LinearOptimalityProperty,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace nldl::dlt
