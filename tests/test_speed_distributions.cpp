// Unit and statistical tests for the Section 4.3 platform generators.
#include "platform/speed_distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace nldl::platform {
namespace {

TEST(SpeedModel, Names) {
  EXPECT_EQ(to_string(SpeedModel::kHomogeneous), "homogeneous");
  EXPECT_EQ(to_string(SpeedModel::kUniform), "uniform[1,100]");
  EXPECT_EQ(to_string(SpeedModel::kLogNormal), "lognormal(0,1)");
  EXPECT_EQ(to_string(SpeedModel::kTwoClass), "two-class(1,k)");
}

TEST(MakePlatform, HomogeneousIsUniform) {
  util::Rng rng(1);
  const Platform plat = make_platform(SpeedModel::kHomogeneous, 10, rng);
  EXPECT_EQ(plat.size(), 10U);
  EXPECT_DOUBLE_EQ(plat.heterogeneity(), 1.0);
}

TEST(MakePlatform, UniformStaysInRange) {
  util::Rng rng(2);
  const Platform plat = make_platform(SpeedModel::kUniform, 1000, rng);
  for (std::size_t i = 0; i < plat.size(); ++i) {
    ASSERT_GE(plat.speed(i), 1.0);
    ASSERT_LT(plat.speed(i), 100.0);
  }
}

TEST(MakePlatform, UniformMeanIsCentered) {
  util::Rng rng(3);
  util::RunningStats stats;
  for (int rep = 0; rep < 50; ++rep) {
    const Platform plat = make_platform(SpeedModel::kUniform, 1000, rng);
    for (std::size_t i = 0; i < plat.size(); ++i) stats.push(plat.speed(i));
  }
  EXPECT_NEAR(stats.mean(), 50.5, 0.5);
}

TEST(MakePlatform, LogNormalMedianNearOne) {
  util::Rng rng(4);
  std::vector<double> speeds;
  for (int rep = 0; rep < 50; ++rep) {
    const Platform plat = make_platform(SpeedModel::kLogNormal, 1000, rng);
    for (std::size_t i = 0; i < plat.size(); ++i) {
      speeds.push_back(plat.speed(i));
    }
  }
  EXPECT_NEAR(util::quantile(std::move(speeds), 0.5), 1.0, 0.05);
}

TEST(MakePlatform, LogNormalIsHeavyTailed) {
  util::Rng rng(5);
  const Platform plat = make_platform(SpeedModel::kLogNormal, 2000, rng);
  // With 2000 draws of exp(N(0,1)), heterogeneity far exceeds 10 w.h.p.
  EXPECT_GT(plat.heterogeneity(), 10.0);
}

TEST(MakePlatform, TwoClassUsesTheStudysK) {
  util::Rng rng(6);
  const Platform plat = make_platform(SpeedModel::kTwoClass, 8, rng);
  EXPECT_DOUBLE_EQ(plat.heterogeneity(), 10.0);
}

TEST(MakePlatform, DeterministicGivenSeed) {
  util::Rng rng_a(99);
  util::Rng rng_b(99);
  const Platform a = make_platform(SpeedModel::kLogNormal, 50, rng_a);
  const Platform b = make_platform(SpeedModel::kLogNormal, 50, rng_b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.speed(i), b.speed(i));
  }
}

TEST(MakePlatform, UnitCommCost) {
  util::Rng rng(7);
  for (const SpeedModel model :
       {SpeedModel::kHomogeneous, SpeedModel::kUniform, SpeedModel::kLogNormal,
        SpeedModel::kTwoClass}) {
    const Platform plat = make_platform(model, 6, rng);
    for (std::size_t i = 0; i < plat.size(); ++i) {
      EXPECT_EQ(plat.c(i), 1.0);
    }
  }
}

TEST(MakePlatform, RejectsZeroWorkers) {
  util::Rng rng(8);
  EXPECT_THROW((void)make_platform(SpeedModel::kUniform, 0, rng),
               util::PreconditionError);
}

}  // namespace
}  // namespace nldl::platform
