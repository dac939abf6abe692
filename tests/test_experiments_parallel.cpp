// Tests for the parallel Figure 4 runner (thread-count invariance) and the
// engine-backed capacity sweep.
#include "core/experiments.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/engine.hpp"
#include "util/assert.hpp"

namespace nldl::core {
namespace {

Fig4Config small_config(std::size_t threads) {
  Fig4Config config;
  config.model = platform::SpeedModel::kLogNormal;
  config.trials = 8;
  config.seed = 424242;
  config.threads = threads;
  return config;
}

void expect_rows_identical(const std::vector<Fig4Row>& a,
                           const std::vector<Fig4Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].p, b[i].p);
    EXPECT_EQ(a[i].het.count(), b[i].het.count());
    EXPECT_EQ(a[i].het.mean(), b[i].het.mean());
    EXPECT_EQ(a[i].het.variance(), b[i].het.variance());
    EXPECT_EQ(a[i].hom.mean(), b[i].hom.mean());
    EXPECT_EQ(a[i].hom.variance(), b[i].hom.variance());
    EXPECT_EQ(a[i].hom_k.mean(), b[i].hom_k.mean());
    EXPECT_EQ(a[i].hom_k.variance(), b[i].hom_k.variance());
    EXPECT_EQ(a[i].k_used.mean(), b[i].k_used.mean());
    EXPECT_EQ(a[i].hom_imbalance.count(), b[i].hom_imbalance.count());
    EXPECT_EQ(a[i].hom_imbalance.mean(), b[i].hom_imbalance.mean());
    EXPECT_EQ(a[i].hom_imbalance_dropped, b[i].hom_imbalance_dropped);
    EXPECT_EQ(a[i].hom_idle_trials, b[i].hom_idle_trials);
  }
}

TEST(Fig4Parallel, BitIdenticalAcrossThreadCounts) {
  const auto serial = run_fig4(small_config(1));
  for (const std::size_t threads : {2UL, 4UL, 7UL}) {
    const auto parallel = run_fig4(small_config(threads));
    expect_rows_identical(serial, parallel);
  }
}

TEST(Fig4Parallel, HardwareThreadCountAlsoIdentical) {
  const auto serial = run_fig4(small_config(1));
  const auto automatic = run_fig4(small_config(0));  // 0 = hardware
  expect_rows_identical(serial, automatic);
}

TEST(Fig4Parallel, MoreThreadsThanTrialsIsFine) {
  Fig4Config config = small_config(64);
  config.trials = 3;  // 6 processor counts × 3 trials = 18 points
  const auto rows = run_fig4(config);
  ASSERT_EQ(rows.size(), 6U);
  for (const auto& row : rows) EXPECT_EQ(row.het.count(), 3U);
}

TEST(CapacitySweep, MakespanDropsCoveredFractionDoesNot) {
  CapacitySweepConfig config;
  config.total_load = 1000.0;
  const auto rows = capacity_sweep(config);
  ASSERT_EQ(rows.size(), 5U);
  double previous = std::numeric_limits<double>::infinity();
  for (const auto& row : rows) {
    EXPECT_LE(row.makespan, previous + 1e-9);
    previous = row.makespan;
    // The covered share is a property of the division, not the network.
    EXPECT_DOUBLE_EQ(row.covered_fraction, rows.front().covered_fraction);
    EXPECT_LE(row.comm_phase_end, row.makespan);
  }
}

TEST(CapacitySweep, InfiniteCapacityMatchesParallelLinksEngine) {
  // The last row is the uncapped master: 64 workers (c = w = 1), alpha 2.
  CapacitySweepConfig config;
  config.total_load = 800.0;
  const auto rows = capacity_sweep(config);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows.back().capacity, std::numeric_limits<double>::infinity());

  const auto plat = platform::Platform::homogeneous(64);
  const sim::Engine engine(plat, sim::EngineOptions{2.0});
  const std::vector<double> amounts(64, config.total_load / 64.0);
  const auto direct = engine.run_single_round(
      amounts, sim::ParallelLinksModel{});
  EXPECT_EQ(rows.back().makespan, direct.makespan);
}

TEST(Fig4Parallel, ImbalanceSamplesAreAccountedFor) {
  // Every trial's imbalance sample is either pushed or counted as
  // dropped — never silently discarded (the pre-fix behavior).
  const auto rows = run_fig4(small_config(1));
  for (const auto& row : rows) {
    EXPECT_EQ(row.hom_imbalance.count() + row.hom_imbalance_dropped,
              row.het.count());
    // With imbalance defined over busy workers, nothing is non-finite.
    EXPECT_EQ(row.hom_imbalance_dropped, 0U);
    if (!row.hom_imbalance.empty()) {
      EXPECT_TRUE(std::isfinite(row.hom_imbalance.mean()));
      EXPECT_TRUE(std::isfinite(row.hom_imbalance.max()));
    }
  }
}

TEST(CapacitySweep, BitIdenticalAcrossThreadCounts) {
  CapacitySweepConfig config;
  config.total_load = 1000.0;
  config.threads = 1;
  const auto serial = capacity_sweep(config);
  for (const std::size_t threads : {2UL, 4UL, 0UL}) {
    config.threads = threads;
    const auto parallel = capacity_sweep(config);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].capacity, serial[i].capacity);
      EXPECT_EQ(parallel[i].comm_phase_end, serial[i].comm_phase_end);
      EXPECT_EQ(parallel[i].makespan, serial[i].makespan);
      EXPECT_EQ(parallel[i].covered_fraction, serial[i].covered_fraction);
    }
  }
}

TEST(CapacitySweep, RejectsBadConfig) {
  CapacitySweepConfig config;
  config.total_load = -1.0;
  EXPECT_THROW((void)capacity_sweep(config), util::PreconditionError);
}

}  // namespace
}  // namespace nldl::core
