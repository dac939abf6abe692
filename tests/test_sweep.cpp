// Tests for the deterministic parallel sweep framework: grid layout,
// RNG sub-stream pre-splitting, and — the core contract — bit-identical
// results and reductions for every thread count.
#include "util/sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace nldl::util {
namespace {

TEST(Grid, EmptyGridHasOnePoint) {
  Grid grid;
  EXPECT_EQ(grid.size(), 1U);
  EXPECT_EQ(grid.axes(), 0U);
}

TEST(Grid, SizeIsProductOfAxes) {
  Grid grid;
  grid.axis("a", {1.0, 2.0, 3.0}).axis("b", std::size_t{4});
  EXPECT_EQ(grid.axes(), 2U);
  EXPECT_EQ(grid.size(), 12U);
}

TEST(Grid, RowMajorLastAxisFastest) {
  Grid grid;
  grid.axis("a", {10.0, 20.0}).axis("b", {1.0, 2.0, 3.0});
  // Flat order: (10,1) (10,2) (10,3) (20,1) (20,2) (20,3).
  EXPECT_DOUBLE_EQ(grid.value(0, "a"), 10.0);
  EXPECT_DOUBLE_EQ(grid.value(0, "b"), 1.0);
  EXPECT_DOUBLE_EQ(grid.value(2, "a"), 10.0);
  EXPECT_DOUBLE_EQ(grid.value(2, "b"), 3.0);
  EXPECT_DOUBLE_EQ(grid.value(3, "a"), 20.0);
  EXPECT_DOUBLE_EQ(grid.value(3, "b"), 1.0);
  EXPECT_DOUBLE_EQ(grid.value(5, "b"), 3.0);
}

TEST(Grid, CategoricalAxisReadsBackAsIndex) {
  Grid grid;
  grid.axis("model", std::size_t{3}).axis("x", {0.5, 1.5});
  EXPECT_EQ(grid.index_of(0, "model"), 0U);
  EXPECT_EQ(grid.index_of(5, "model"), 2U);
  EXPECT_THROW((void)grid.index_of(1, "x"), PreconditionError);
}

TEST(Grid, RejectsMisuse) {
  Grid grid;
  EXPECT_THROW(grid.axis("empty", std::vector<double>{}),
               PreconditionError);
  grid.axis("a", std::vector<double>{1.0});
  EXPECT_THROW(grid.axis("a", std::vector<double>{2.0}),
               PreconditionError);
  EXPECT_THROW((void)grid.value(0, "unknown"), PreconditionError);
  EXPECT_THROW((void)grid.value(7, "a"), PreconditionError);
}

/// A point function that consumes randomness and produces thread-count
/// sensitive results if the sub-stream contract were broken.
double noisy_point(const SweepPoint& point, Rng& rng) {
  double acc = point.value("x");
  // Uneven work per point so threads genuinely interleave.
  const int draws = 1 + static_cast<int>(point.index()) % 7;
  for (int i = 0; i < draws; ++i) acc += rng.uniform();
  return acc;
}

TEST(Sweep, MapBitIdenticalAcrossThreadCounts) {
  Grid grid;
  grid.axis("x", {1.0, 2.0, 3.0, 4.0, 5.0}).axis("trial", std::size_t{9});
  SweepOptions serial_options;
  serial_options.threads = 1;
  serial_options.seed = 12345;
  const auto reference =
      Sweep(grid, serial_options).map<double>(noisy_point);
  ASSERT_EQ(reference.size(), 45U);

  for (const std::size_t threads : {2UL, 4UL, 7UL, 0UL}) {
    SweepOptions options;
    options.threads = threads;
    options.seed = 12345;
    const auto parallel = Sweep(grid, options).map<double>(noisy_point);
    ASSERT_EQ(parallel.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(parallel[i], reference[i]) << "point " << i;
    }
  }
}

TEST(Sweep, SeedChangesResults) {
  Grid grid;
  grid.axis("x", {1.0, 2.0});
  SweepOptions a;
  a.seed = 1;
  SweepOptions b;
  b.seed = 2;
  EXPECT_NE(Sweep(grid, a).map<double>(noisy_point),
            Sweep(grid, b).map<double>(noisy_point));
}

TEST(Sweep, OrderedReductionBitIdentical) {
  // Welford accumulators are order-sensitive; the fold must observe
  // points in flat order whatever the thread count.
  Grid grid;
  grid.axis("x", {0.25, 0.5, 1.0}).axis("trial", std::size_t{16});

  const auto reduce = [&](std::size_t threads) {
    SweepOptions options;
    options.threads = threads;
    options.seed = 99;
    return Sweep(grid, options).run<double, RunningStats>(
        noisy_point, RunningStats{},
        [](RunningStats& acc, const double& value, const SweepPoint&) {
          acc.push(value);
        });
  };

  const RunningStats reference = reduce(1);
  for (const std::size_t threads : {2UL, 5UL, 0UL}) {
    const RunningStats stats = reduce(threads);
    EXPECT_EQ(stats.count(), reference.count());
    EXPECT_EQ(stats.mean(), reference.mean());
    EXPECT_EQ(stats.variance(), reference.variance());
    EXPECT_EQ(stats.min(), reference.min());
    EXPECT_EQ(stats.max(), reference.max());
  }
}

TEST(Sweep, PointExceptionPropagates) {
  Grid grid;
  grid.axis("x", {1.0, 2.0, 3.0, 4.0});
  SweepOptions options;
  options.threads = 2;
  const Sweep sweep(std::move(grid), options);
  EXPECT_THROW(
      (void)sweep.map<double>([](const SweepPoint& point, Rng&) -> double {
        if (point.index() == 2) throw std::runtime_error("bad point");
        return 0.0;
      }),
      std::runtime_error);
}

TEST(ResolveThreads, ZeroMeansHardware) {
  EXPECT_GE(resolve_threads(0), 1U);
  EXPECT_EQ(resolve_threads(5), 5U);
}

}  // namespace
}  // namespace nldl::util
