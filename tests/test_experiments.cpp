// Tests for the Figure 4 experiment runner (scaled-down sweeps — the full
// paper-scale run lives in bench/bench_fig4*).
#include "core/experiments.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "util/assert.hpp"

namespace nldl::core {
namespace {

Fig4Config small_config(platform::SpeedModel model) {
  Fig4Config config;
  config.model = model;
  config.trials = 10;
  config.seed = 20130520;  // IPDPS 2013 ;-)
  return config;
}

TEST(Fig4, HomogeneousRatiosNearOne) {
  const auto rows = run_fig4(small_config(platform::SpeedModel::kHomogeneous));
  ASSERT_EQ(rows.size(), 6U);
  for (const auto& row : rows) {
    // Comm_het pays ~1 % over the bound (the paper: "the increase is
    // usually as small as 1% of the lower bound").
    EXPECT_LE(row.het.mean(), 1.02);
    EXPECT_LE(row.hom.mean(), 1.001);
    EXPECT_LE(row.hom_k.mean(), 1.001);
    EXPECT_NEAR(row.k_used.mean(), 1.0, 1e-9);
    EXPECT_NEAR(row.het.stddev(), 0.0, 1e-9);
  }
}

TEST(Fig4, UniformShowsTheGap) {
  const auto rows = run_fig4(small_config(platform::SpeedModel::kUniform));
  for (const auto& row : rows) {
    EXPECT_LE(row.het.mean(), 1.05);   // paper: within 2 %
    EXPECT_GE(row.hom_k.mean(), 2.0);  // paper: large (15–30 at p = 100)
    EXPECT_GE(row.hom_k.mean(), row.hom.mean());  // refinement costs volume
  }
}

TEST(Fig4, RowsFollowThePapersProcessorCounts) {
  const auto rows = run_fig4(small_config(platform::SpeedModel::kUniform));
  const std::vector<std::size_t> want = {10, 20, 40, 60, 80, 100};
  ASSERT_EQ(rows.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(rows[i].p, want[i]);
}

TEST(Fig4, GapGrowsWithP) {
  auto config = small_config(platform::SpeedModel::kLogNormal);
  config.trials = 20;
  const auto rows = run_fig4(config);
  EXPECT_GT(rows.back().hom_k.mean(), rows.front().hom_k.mean());
  EXPECT_LE(rows.back().het.mean(), 1.05);
}

TEST(Fig4, DeterministicGivenSeed) {
  const auto a = run_fig4(small_config(platform::SpeedModel::kUniform));
  const auto b = run_fig4(small_config(platform::SpeedModel::kUniform));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].het.mean(), b[i].het.mean());
    EXPECT_DOUBLE_EQ(a[i].hom_k.mean(), b[i].hom_k.mean());
  }
}

TEST(Fig4, TrialCountsRespected) {
  const auto rows = run_fig4(small_config(platform::SpeedModel::kUniform));
  for (const auto& row : rows) {
    EXPECT_EQ(row.het.count(), 10U);
    EXPECT_EQ(row.hom.count(), 10U);
    EXPECT_EQ(row.hom_k.count(), 10U);
  }
}

TEST(Fig4, TableHasOneRowPerP) {
  const auto rows = run_fig4(small_config(platform::SpeedModel::kUniform));
  const auto table = fig4_table(rows);
  EXPECT_EQ(table.num_rows(), rows.size());
  std::ostringstream out;
  table.print(out);
  EXPECT_NE(out.str().find("Comm_het"), std::string::npos);
}

TEST(Fig4, RejectsBadConfig) {
  Fig4Config config;
  config.trials = 0;
  EXPECT_THROW((void)run_fig4(config), util::PreconditionError);
}

}  // namespace
}  // namespace nldl::core
