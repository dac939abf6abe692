// Tests for the with-return-messages extension (refs [28]-[30]).
#include "dlt/return_messages.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "dlt/linear_dlt.hpp"
#include "platform/speed_distributions.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nldl::dlt {
namespace {

using platform::Platform;

std::vector<std::size_t> identity_order(std::size_t p) {
  std::vector<std::size_t> order(p);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

TEST(ParallelWithReturn, DeltaZeroMatchesNoReturn) {
  const Platform plat = Platform::from_speeds({1.0, 2.0, 5.0}, 0.5);
  const auto with = linear_parallel_with_return(plat, 30.0, 0.0);
  const auto without = linear_parallel_single_round(plat, 30.0);
  for (std::size_t i = 0; i < plat.size(); ++i) {
    EXPECT_NEAR(with.amounts[i], without.amounts[i], 1e-9);
  }
  EXPECT_NEAR(with.makespan, without.makespan, 1e-9);
}

TEST(ParallelWithReturn, EqualFinishIncludingReturn) {
  const Platform plat = Platform::from_speeds({1.0, 3.0, 7.0}, 2.0);
  const double delta = 0.5;
  const auto alloc = linear_parallel_with_return(plat, 40.0, delta);
  double total = 0.0;
  for (std::size_t i = 0; i < plat.size(); ++i) {
    const double finish =
        (plat.c(i) * (1.0 + delta) + plat.w(i)) * alloc.amounts[i];
    EXPECT_NEAR(finish, alloc.makespan, 1e-9);
    total += alloc.amounts[i];
  }
  EXPECT_NEAR(total, 40.0, 1e-9);
}

TEST(ParallelWithReturn, ReturnsSlowTheSchedule) {
  const Platform plat = Platform::from_speeds({1.0, 2.0}, 1.0);
  const auto small = linear_parallel_with_return(plat, 10.0, 0.1);
  const auto large = linear_parallel_with_return(plat, 10.0, 1.0);
  EXPECT_LT(small.makespan, large.makespan);
}

TEST(ParallelWithReturn, RejectsNegativeDelta) {
  const Platform plat = Platform::homogeneous(2);
  EXPECT_THROW((void)linear_parallel_with_return(plat, 1.0, -0.1),
               util::PreconditionError);
}

TEST(SimulateOnePortWithReturn, HandComputedTimeline) {
  // Two identical workers (c = 1, w = 1), 1 unit each, delta = 1.
  // Sends: [0,1] to w0, [1,2] to w1. Computes: w0 [1,2], w1 [2,3].
  // Returns cannot start before all sends end (t = 2).
  // FIFO (w0 then w1): w0 returns [2,3]; w1 ready at 3, returns [3,4].
  const Platform plat = Platform::homogeneous(2, 1.0);
  const double makespan = simulate_one_port_with_return(
      plat, {1.0, 1.0}, 1.0, identity_order(2), identity_order(2));
  EXPECT_DOUBLE_EQ(makespan, 4.0);
}

TEST(SimulateOnePortWithReturn, LifoCanBeatFifo) {
  // Classical observation: with large returns, LIFO lets the last-fed
  // (still computing) worker overlap while the early worker's big return
  // waits — orders matter.
  const Platform plat = Platform::from_speeds({1.0, 1.0}, 1.0);
  const std::vector<double> amounts{3.0, 1.0};
  const double delta = 1.0;
  const auto order = identity_order(2);
  const double fifo = simulate_one_port_with_return(plat, amounts, delta,
                                                    order, order);
  const std::vector<std::size_t> reversed{1, 0};
  const double lifo = simulate_one_port_with_return(plat, amounts, delta,
                                                    order, reversed);
  EXPECT_NE(fifo, lifo);  // the return permutation is load-bearing
}

TEST(OnePortWithReturn, AllocationsUseTheWholeLoad) {
  const Platform plat = Platform::from_speeds({1.0, 2.0, 4.0}, 0.3);
  for (const double delta : {0.0, 0.25, 1.0}) {
    const auto fifo =
        one_port_fifo_with_return(plat, 20.0, delta, identity_order(3));
    const auto lifo =
        one_port_lifo_with_return(plat, 20.0, delta, identity_order(3));
    double fifo_total = 0.0;
    double lifo_total = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_GE(fifo.amounts[i], 0.0);
      ASSERT_GE(lifo.amounts[i], 0.0);
      fifo_total += fifo.amounts[i];
      lifo_total += lifo.amounts[i];
    }
    EXPECT_NEAR(fifo_total, 20.0, 1e-6);
    EXPECT_NEAR(lifo_total, 20.0, 1e-6);
  }
}

TEST(OnePortWithReturn, MakespanMatchesItsOwnSimulation) {
  const Platform plat = Platform::from_speeds({2.0, 3.0}, 0.5);
  const auto alloc =
      one_port_fifo_with_return(plat, 12.0, 0.5, identity_order(2));
  const double simulated = simulate_one_port_with_return(
      plat, alloc.amounts, 0.5, identity_order(2), identity_order(2));
  EXPECT_NEAR(alloc.makespan, simulated, 1e-9);
}

TEST(OnePortWithReturn, DeltaZeroApproachesClassicalOnePort) {
  const Platform plat = Platform::from_speeds({1.0, 2.0, 3.0}, 0.4);
  const auto with =
      one_port_fifo_with_return(plat, 25.0, 0.0, identity_order(3));
  const auto classical = linear_one_port_single_round(plat, 25.0);
  EXPECT_NEAR(with.makespan, classical.makespan,
              1e-4 * classical.makespan);
}

// Documented phenomenon (ref [29]): with return messages, a fixed
// all-workers one-port order can lose to the best worker running alone —
// participation of every processor is *not* always optimal. We pin one
// such instance so the behaviour stays visible.
TEST(OnePortWithReturn, FixedOrderCanLoseToSoloWorker) {
  util::Rng rng(2 * 271 + 9);  // the seed that exhibited it
  const auto p = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const auto plat = platform::make_platform(
      platform::SpeedModel::kUniform, p, rng);
  const double delta = rng.uniform(0.0, 1.5);
  const double load = rng.uniform(1.0, 100.0);
  const auto fifo =
      one_port_fifo_with_return(plat, load, delta, identity_order(p));
  double solo = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < p; ++i) {
    solo = std::min(solo, (plat.c(i) * (1.0 + delta) + plat.w(i)) * load);
  }
  EXPECT_GT(fifo.makespan, solo);
}

// Property: allocations stay feasible and self-consistent, and no
// schedule beats the parallel-links (contention-free) lower bound.
class ReturnMessagesProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReturnMessagesProperty, SolversProduceFeasibleSchedules) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 9);
  const auto p = static_cast<std::size_t>(rng.uniform_int(2, 6));
  const auto plat = platform::make_platform(
      platform::SpeedModel::kUniform, p, rng);
  const double delta = rng.uniform(0.0, 1.5);
  const double load = rng.uniform(1.0, 100.0);
  const auto order = identity_order(p);

  const auto fifo = one_port_fifo_with_return(plat, load, delta, order);
  const auto lifo = one_port_lifo_with_return(plat, load, delta, order);

  // Self-consistency: reported makespan equals the simulated one.
  std::vector<std::size_t> reversed(order.rbegin(), order.rend());
  EXPECT_NEAR(fifo.makespan,
              simulate_one_port_with_return(plat, fifo.amounts, delta,
                                            order, order),
              1e-9 * fifo.makespan);
  EXPECT_NEAR(lifo.makespan,
              simulate_one_port_with_return(plat, lifo.amounts, delta,
                                            order, reversed),
              1e-9 * lifo.makespan);

  // Never better than the contention-free equal-finish bound.
  const auto ideal = linear_parallel_with_return(plat, load, delta);
  EXPECT_GE(fifo.makespan, ideal.makespan * (1.0 - 1e-9));
  EXPECT_GE(lifo.makespan, ideal.makespan * (1.0 - 1e-9));

  // All load distributed, non-negatively.
  double fifo_total = 0.0;
  double lifo_total = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    ASSERT_GE(fifo.amounts[i], 0.0);
    ASSERT_GE(lifo.amounts[i], 0.0);
    fifo_total += fifo.amounts[i];
    lifo_total += lifo.amounts[i];
  }
  EXPECT_NEAR(fifo_total, load, 1e-6 * load);
  EXPECT_NEAR(lifo_total, load, 1e-6 * load);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ReturnMessagesProperty,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace nldl::dlt
