// Tests for multi-round (multi-installment) DLT scheduling.
#include "dlt/multi_round.hpp"

#include <gtest/gtest.h>

#include "dlt/linear_dlt.hpp"
#include "platform/speed_distributions.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nldl::dlt {
namespace {

using platform::Platform;

TEST(MultiRound, OneRoundMatchesSingleInstallment) {
  const Platform plat = Platform::from_speeds({1.0, 2.0, 4.0}, 0.5);
  const auto plan = uniform_multi_round(plat, 60.0, 1);
  const auto single = linear_one_port_single_round(plat, 60.0);
  EXPECT_NEAR(plan.simulated_makespan, single.makespan, 1e-9);
}

TEST(MultiRound, TotalLoadPreserved) {
  const Platform plat = Platform::from_speeds({1.0, 3.0}, 1.0);
  for (const std::size_t rounds : {1UL, 2UL, 5UL, 16UL}) {
    const auto plan = uniform_multi_round(plat, 42.0, rounds);
    double total = 0.0;
    for (const auto& chunk : plan.schedule) total += chunk.size;
    EXPECT_NEAR(total, 42.0, 1e-9) << rounds << " rounds";
  }
}

TEST(MultiRound, GeometricTotalsMatchToo) {
  const Platform plat = Platform::from_speeds({2.0, 5.0}, 0.8);
  for (const double ratio : {0.5, 1.0, 2.0}) {
    const auto plan = geometric_multi_round(plat, 30.0, 6, ratio);
    double total = 0.0;
    for (const auto& chunk : plan.schedule) total += chunk.size;
    EXPECT_NEAR(total, 30.0, 1e-9) << "ratio " << ratio;
  }
}

TEST(MultiRound, PipeliningNeverHurtsOnePort) {
  // More rounds overlap communication with computation; the simulated
  // makespan must not increase (linear loads, no latency in the model).
  const Platform plat(std::vector<platform::Processor>(6, {1.0, 2.0}));
  const double single = uniform_multi_round(plat, 120.0, 1)
                            .simulated_makespan;
  const double multi = uniform_multi_round(plat, 120.0, 8)
                           .simulated_makespan;
  EXPECT_LE(multi, single + 1e-9);
}

TEST(MultiRound, BestPlanBeatsOrMatchesEveryCandidate) {
  util::Rng rng(13);
  for (int rep = 0; rep < 5; ++rep) {
    const auto plat = platform::make_platform(
        platform::SpeedModel::kUniform, 5, rng);
    const auto best = best_multi_round(plat, 77.0);
    for (const std::size_t rounds : {1UL, 2UL, 4UL, 8UL}) {
      EXPECT_LE(best.simulated_makespan,
                uniform_multi_round(plat, 77.0, rounds).simulated_makespan +
                    1e-9);
    }
    // And reports a makespan consistent with its own schedule.
    EXPECT_NEAR(best.simulated_makespan,
                sim::Engine(plat)
                    .run(best.schedule, sim::CommModelKind::kOnePort)
                    .makespan,
                1e-9);
  }
}

TEST(MultiRound, CommBoundMakespanImprovesALot) {
  // Communication-heavy platform: single-round forces each worker to wait
  // for its whole chunk; pipelining hides most of it.
  const Platform plat = Platform::homogeneous(4, 2.0);
  const double single = uniform_multi_round(plat, 100.0, 1)
                            .simulated_makespan;
  const auto best = best_multi_round(plat, 100.0);
  EXPECT_LT(best.simulated_makespan, single);
  EXPECT_GT(best.rounds, 1U);
}

TEST(MultiRound, RejectsBadArguments) {
  const Platform plat = Platform::homogeneous(2);
  EXPECT_THROW((void)uniform_multi_round(plat, 1.0, 0),
               util::PreconditionError);
  EXPECT_THROW((void)geometric_multi_round(plat, 1.0, 2, 0.0),
               util::PreconditionError);
}

}  // namespace
}  // namespace nldl::dlt
