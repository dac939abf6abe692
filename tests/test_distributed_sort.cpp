// Tests for the distributed-sort schedule model (Section 3 on the star
// platform).
#include "sort/distributed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "util/assert.hpp"

namespace nldl::sort {
namespace {

using platform::Platform;

TEST(DistributedSort, BucketsSumToN) {
  const auto plat = Platform::from_speeds({1.0, 2.0, 5.0});
  const auto plan = plan_distributed_sort(plat, 1e6);
  double total = 0.0;
  for (const double b : plan.bucket_sizes) total += b;
  EXPECT_NEAR(total, 1e6, 1e-6);
}

TEST(DistributedSort, HeterogeneousBucketsTrackSpeeds) {
  const auto plat = Platform::from_speeds({1.0, 3.0});
  const auto plan = plan_distributed_sort(plat, 1e6);
  EXPECT_NEAR(plan.bucket_sizes[0], 0.25e6, 1.0);
  EXPECT_NEAR(plan.bucket_sizes[1], 0.75e6, 1.0);
}

TEST(DistributedSort, HomogeneousBucketsEqualShares) {
  const auto plat = Platform::from_speeds({1.0, 3.0});
  DistributedSortConfig config;
  config.heterogeneous_buckets = false;
  const auto plan = plan_distributed_sort(plat, 1e6, config);
  EXPECT_NEAR(plan.bucket_sizes[0], 0.5e6, 1.0);
  EXPECT_NEAR(plan.bucket_sizes[1], 0.5e6, 1.0);
}

TEST(DistributedSort, OverheadRatioShrinksWithN) {
  // The Section 3 claim, as a schedule: makespan / ideal -> 1.
  const auto plat = Platform::homogeneous(16, 0.01);
  const double small =
      plan_distributed_sort(plat, 1e5).overhead_ratio;
  const double large =
      plan_distributed_sort(plat, 1e9).overhead_ratio;
  EXPECT_LT(large, small);
  EXPECT_GT(small, 1.0);
}

TEST(DistributedSort, HeterogeneousBeatsHomogeneousOnSkewedPlatform) {
  // Speed-proportional buckets equalize worker finish; equal buckets leave
  // the slow worker as the bottleneck.
  const auto plat = Platform::two_class(8, 1.0, 10.0);
  DistributedSortConfig het;
  DistributedSortConfig hom;
  hom.heterogeneous_buckets = false;
  const auto het_plan = plan_distributed_sort(plat, 1e8, het);
  const auto hom_plan = plan_distributed_sort(plat, 1e8, hom);
  EXPECT_LT(het_plan.makespan, hom_plan.makespan);
}

TEST(DistributedSort, MasterSpeedScalesPreprocessing) {
  const auto plat = Platform::homogeneous(4);
  DistributedSortConfig fast_master;
  fast_master.master_w = 0.1;
  DistributedSortConfig slow_master;
  slow_master.master_w = 10.0;
  const auto fast = plan_distributed_sort(plat, 1e6, fast_master);
  const auto slow = plan_distributed_sort(plat, 1e6, slow_master);
  EXPECT_NEAR(slow.step2_time / fast.step2_time, 100.0, 1e-6);
  EXPECT_DOUBLE_EQ(slow.step3_time, fast.step3_time);
}

TEST(DistributedSort, RejectsBadInput) {
  const auto plat = Platform::homogeneous(2);
  EXPECT_THROW((void)plan_distributed_sort(plat, 1.0),
               util::PreconditionError);
  DistributedSortConfig config;
  config.master_w = 0.0;
  EXPECT_THROW((void)plan_distributed_sort(plat, 100.0, config),
               util::PreconditionError);
}

}  // namespace
}  // namespace nldl::sort
