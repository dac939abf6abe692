// Tests for the bounded-multiport (water-filling) communication model,
// driven through single-round engine runs: one chunk per worker, in
// worker order, so spans[i] is worker i's transfer and computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "dlt/linear_dlt.hpp"
#include "platform/platform.hpp"
#include "platform/processor.hpp"
#include "platform/speed_distributions.hpp"
#include "sim/comm_model.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nldl::sim {
namespace {

using platform::Platform;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Single round of `amounts` under a master of the given capacity.
SimResult run_bounded(const Platform& plat,
                      const std::vector<double>& amounts, double capacity,
                      double alpha = 1.0) {
  return Engine(plat, EngineOptions{alpha})
      .run_single_round(amounts, BoundedMultiportModel(capacity));
}

TEST(BoundedMultiport, InfiniteCapacityIsParallelLinks) {
  const Platform plat = Platform::from_speeds({1.0, 2.0}, 0.5);
  const SimResult result = run_bounded(plat, {10.0, 20.0}, kInf);
  // Each transfer runs at its private bandwidth 1/c = 2.
  EXPECT_NEAR(result.spans[0].comm_end, 10.0 * 0.5, 1e-9);
  EXPECT_NEAR(result.spans[1].comm_end, 20.0 * 0.5, 1e-9);
}

TEST(BoundedMultiport, TinyCapacitySharesFairly) {
  // Two equal transfers, master capacity 1, private caps 10 each:
  // both run at 0.5 and finish together at amount/0.5.
  const Platform plat = Platform::homogeneous(2, 0.1);
  const SimResult result = run_bounded(plat, {5.0, 5.0}, 1.0);
  EXPECT_NEAR(result.spans[0].comm_end, 10.0, 1e-9);
  EXPECT_NEAR(result.spans[1].comm_end, 10.0, 1e-9);
}

TEST(BoundedMultiport, UnequalAmountsReleaseCapacity) {
  // Transfers of 2 and 6 units, capacity 2, private caps 10:
  // phase 1: both at rate 1 until t=2 (first done);
  // phase 2: second alone at min(10, 2) = 2, remaining 4 units -> t=4.
  const Platform plat = Platform::homogeneous(2, 0.1);
  const SimResult result = run_bounded(plat, {2.0, 6.0}, 2.0);
  EXPECT_NEAR(result.spans[0].comm_end, 2.0, 1e-9);
  EXPECT_NEAR(result.spans[1].comm_end, 4.0, 1e-9);
}

TEST(BoundedMultiport, PrivateCapBindsBeforeShare) {
  // Worker 0 has a slow link (cap 0.5), worker 1 fast (cap 10);
  // capacity 4: worker 0 gets 0.5, worker 1 gets 3.5.
  std::vector<platform::Processor> workers{{2.0, 1.0}, {0.1, 1.0}};
  const Platform plat{std::move(workers)};
  const SimResult result = run_bounded(plat, {1.0, 7.0}, 4.0);
  EXPECT_NEAR(result.spans[0].comm_end, 2.0, 1e-9);   // 1 / 0.5
  EXPECT_NEAR(result.spans[1].comm_end, 2.0, 1e-9);   // 7 / 3.5
}

TEST(BoundedMultiport, ComputeFollowsComm) {
  const Platform plat = Platform({{1.0, 2.0}});
  const SimResult result = run_bounded(plat, {3.0}, kInf, 2.0);
  EXPECT_NEAR(result.spans[0].comm_end, 3.0, 1e-9);
  EXPECT_NEAR(result.spans[0].compute_end, 3.0 + 2.0 * 9.0, 1e-9);
  EXPECT_NEAR(result.makespan, 21.0, 1e-9);
}

TEST(BoundedMultiport, ZeroAmountsAreFree) {
  const Platform plat = Platform::homogeneous(3);
  const SimResult result = run_bounded(plat, {0.0, 5.0, 0.0}, 1.0);
  EXPECT_DOUBLE_EQ(result.spans[0].comm_end, 0.0);
  EXPECT_DOUBLE_EQ(result.spans[2].comm_end, 0.0);
  EXPECT_NEAR(result.spans[1].comm_end, 5.0, 1e-9);
}

TEST(BoundedMultiport, MakespanMonotoneInCapacity) {
  util::Rng rng(3);
  const auto plat = platform::make_platform(
      platform::SpeedModel::kUniform, 6, rng);
  const auto alloc = dlt::linear_parallel_single_round(plat, 100.0);
  double previous = kInf;
  for (const double capacity : {0.5, 1.0, 2.0, 8.0, 64.0}) {
    const SimResult result = run_bounded(plat, alloc.amounts, capacity);
    EXPECT_LE(result.makespan, previous + 1e-9)
        << "capacity " << capacity;
    previous = result.makespan;
  }
  // Large capacity converges to the parallel-links optimum.
  const SimResult unconstrained = run_bounded(plat, alloc.amounts, kInf);
  EXPECT_NEAR(previous, unconstrained.makespan,
              1e-6 * unconstrained.makespan);
}

TEST(BoundedMultiport, AggregateThroughputRespectsCapacity) {
  // Total data / comm time <= capacity when capacity binds.
  const Platform plat = Platform::homogeneous(4, 0.01);
  const double capacity = 2.0;
  const SimResult result =
      run_bounded(plat, {10.0, 10.0, 10.0, 10.0}, capacity);
  double last_finish = 0.0;
  for (const ChunkSpan& span : result.spans) {
    last_finish = std::max(last_finish, span.comm_end);
  }
  EXPECT_GE(last_finish, 40.0 / capacity - 1e-9);
}

TEST(BoundedMultiport, RejectsBadInput) {
  const Platform plat = Platform::homogeneous(2);
  // One amount per worker.
  EXPECT_THROW((void)run_bounded(plat, {1.0}, 1.0), util::PreconditionError);
  // Master capacity must be positive.
  EXPECT_THROW((void)run_bounded(plat, {1.0, 1.0}, 0.0),
               util::PreconditionError);
  EXPECT_THROW((void)run_bounded(plat, {1.0, 1.0}, -1.0),
               util::PreconditionError);
  // Amounts must be >= 0.
  EXPECT_THROW((void)run_bounded(plat, {1.0, -1.0}, 1.0),
               util::PreconditionError);
  // alpha must be >= 1.
  EXPECT_THROW((void)run_bounded(plat, {1.0, 1.0}, 1.0, 0.5),
               util::PreconditionError);
}

}  // namespace
}  // namespace nldl::sim
