// Unit tests for streaming statistics and quantiles.
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace nldl::util {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.count(), 0U);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats stats;
  stats.push(42.0);
  EXPECT_EQ(stats.count(), 1U);
  EXPECT_EQ(stats.mean(), 42.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.min(), 42.0);
  EXPECT_EQ(stats.max(), 42.0);
}

TEST(RunningStats, KnownSample) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.push(x);
  }
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.population_variance(), 4.0, 1e-12);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
}

TEST(RunningStats, NumericallyStableOnShiftedData) {
  // Large common offset: naive sum-of-squares loses all precision.
  RunningStats stats;
  const double offset = 1e12;
  for (const double x : {offset + 1.0, offset + 2.0, offset + 3.0}) {
    stats.push(x);
  }
  EXPECT_NEAR(stats.variance(), 1.0, 1e-6);
}

TEST(Quantile, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Quantile, InterpolatesBetweenPoints) {
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
}

TEST(Quantile, Extremes) {
  std::vector<double> sample{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(quantile(sample, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(sample, 1.0), 9.0);
}

TEST(Quantile, RejectsEmptyAndBadOrder) {
  EXPECT_THROW((void)quantile({}, 0.5), PreconditionError);
  EXPECT_THROW((void)quantile({1.0}, -0.1), PreconditionError);
  EXPECT_THROW((void)quantile({1.0}, 1.1), PreconditionError);
}

TEST(JainIndex, KnownAllocations) {
  // Equal shares are perfectly fair; one-takes-all scores 1/n.
  EXPECT_DOUBLE_EQ(jain_index({3.0, 3.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({1.0, 0.0, 0.0, 0.0}), 0.25);
  // (Σx)²/(n·Σx²) for {1, 2, 3}: 36 / (3·14).
  EXPECT_DOUBLE_EQ(jain_index({1.0, 2.0, 3.0}), 36.0 / 42.0);
  // Scale invariance.
  EXPECT_DOUBLE_EQ(jain_index({10.0, 20.0, 30.0}),
                   jain_index({1.0, 2.0, 3.0}));
}

TEST(JainIndex, DegenerateInputsAreFairNotNaN) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({5.0}), 1.0);
  EXPECT_THROW((void)jain_index({-1.0, 2.0}), PreconditionError);
  EXPECT_THROW((void)jain_index({std::numeric_limits<double>::infinity()}),
               PreconditionError);
}

TEST(HitRate, RatesAreNeverNaN) {
  HitRate rate;
  EXPECT_EQ(rate.trials(), 0u);
  EXPECT_DOUBLE_EQ(rate.hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(rate.miss_rate(), 0.0);
  rate.push(true);
  rate.push(true);
  rate.push(false);
  EXPECT_EQ(rate.trials(), 3u);
  EXPECT_EQ(rate.hits(), 2u);
  EXPECT_EQ(rate.misses(), 1u);
  EXPECT_DOUBLE_EQ(rate.hit_rate(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(rate.miss_rate(), 1.0 - 2.0 / 3.0);
}

TEST(ImbalanceOverBusy, SharedDefinition) {
  EXPECT_DOUBLE_EQ(imbalance_over_busy({4.0, 5.0}), 0.25);
  // Idle workers are excluded, not folded in as +infinity.
  EXPECT_DOUBLE_EQ(imbalance_over_busy({0.0, 4.0, 5.0}), 0.25);
  EXPECT_DOUBLE_EQ(imbalance_over_busy({0.0, 5.0}), 0.0);
  EXPECT_DOUBLE_EQ(imbalance_over_busy({}), 0.0);
  EXPECT_DOUBLE_EQ(imbalance_over_busy({5.0, 5.0, 5.0}), 0.0);
  EXPECT_EQ(count_idle({0.0, 4.0, 0.0}), 2U);
  EXPECT_EQ(count_idle({1.0}), 0U);
}

}  // namespace
}  // namespace nldl::util
