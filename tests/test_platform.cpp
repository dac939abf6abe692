// Unit tests for the heterogeneous platform model.
#include "platform/platform.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "util/assert.hpp"

namespace nldl::platform {
namespace {

TEST(Processor, RatesAreReciprocal) {
  const Processor p{0.5, 0.25};
  EXPECT_DOUBLE_EQ(p.bandwidth(), 2.0);
  EXPECT_DOUBLE_EQ(p.speed(), 4.0);
}

TEST(Processor, ValidateRejectsNonPositive) {
  EXPECT_THROW((Processor{0.0, 1.0}.validate()), util::PreconditionError);
  EXPECT_THROW((Processor{1.0, -1.0}.validate()), util::PreconditionError);
  // Non-finite rates would otherwise fail deep inside the nonlinear solver.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, nan}) {
    EXPECT_THROW((Processor{bad, 1.0}.validate()), util::PreconditionError);
    EXPECT_THROW((Processor{1.0, bad}.validate()), util::PreconditionError);
  }
  EXPECT_THROW(Platform({Processor{1.0, 1.0}, Processor{inf, 1.0}}),
               util::PreconditionError);
}

TEST(Platform, RejectsEmpty) {
  EXPECT_THROW(Platform({}), util::PreconditionError);
}

TEST(Platform, HomogeneousBuilder) {
  const Platform plat = Platform::homogeneous(4, 2.0);
  EXPECT_EQ(plat.size(), 4U);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(plat.c(i), 2.0);
    EXPECT_DOUBLE_EQ(plat.w(i), 1.0);
    EXPECT_DOUBLE_EQ(plat.speed(i), 1.0);
  }
  EXPECT_DOUBLE_EQ(plat.heterogeneity(), 1.0);
}

TEST(Platform, FromSpeeds) {
  const Platform plat = Platform::from_speeds({1.0, 2.0, 4.0}, 3.0);
  EXPECT_DOUBLE_EQ(plat.total_speed(), 7.0);
  EXPECT_DOUBLE_EQ(plat.w(2), 0.25);
  EXPECT_DOUBLE_EQ(plat.c(2), 3.0);
  EXPECT_DOUBLE_EQ(plat.heterogeneity(), 4.0);
}

TEST(Platform, FromSpeedsRejectsNonPositive) {
  EXPECT_THROW(Platform::from_speeds({1.0, 0.0}), util::PreconditionError);
}

TEST(Platform, NormalizedSpeedsSumToOne) {
  const Platform plat = Platform::from_speeds({3.0, 5.0, 2.0});
  const auto x = plat.normalized_speeds();
  EXPECT_NEAR(std::accumulate(x.begin(), x.end(), 0.0), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(x[0], 0.3);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
  EXPECT_DOUBLE_EQ(x[2], 0.2);
}

TEST(Platform, SortedBySpeed) {
  const Platform plat = Platform::from_speeds({5.0, 1.0, 3.0});
  EXPECT_FALSE(plat.is_sorted_by_speed());
  const Platform sorted = plat.sorted_by_speed();
  EXPECT_TRUE(sorted.is_sorted_by_speed());
  EXPECT_DOUBLE_EQ(sorted.speed(0), 1.0);
  EXPECT_DOUBLE_EQ(sorted.speed(2), 5.0);
  // Sorting must not change aggregate speed.
  EXPECT_DOUBLE_EQ(sorted.total_speed(), plat.total_speed());
}

TEST(Platform, TwoClassShape) {
  const Platform plat = Platform::two_class(6, 2.0, 5.0);
  EXPECT_EQ(plat.size(), 6U);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(plat.speed(i), 2.0);
  for (std::size_t i = 3; i < 6; ++i) EXPECT_DOUBLE_EQ(plat.speed(i), 10.0);
  EXPECT_DOUBLE_EQ(plat.heterogeneity(), 5.0);
}

TEST(Platform, TwoClassRejectsOddP) {
  EXPECT_THROW(Platform::two_class(5, 1.0, 2.0), util::PreconditionError);
  EXPECT_THROW(Platform::two_class(4, 1.0, 0.5), util::PreconditionError);
}

TEST(Platform, WorkerIndexBounds) {
  const Platform plat = Platform::homogeneous(2);
  EXPECT_THROW((void)plat.worker(2), util::PreconditionError);
}

}  // namespace
}  // namespace nldl::platform
