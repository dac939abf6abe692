// Unit + property tests for the Homogeneous Blocks strategy and the
// Comm_hom/k refinement (paper Sections 4.1.1 and 4.3).
#include "partition/block_homogeneous.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "platform/speed_distributions.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nldl::partition {
namespace {

TEST(Formula, HomogeneousPlatformIsOneBlockPerWorker) {
  // p equal workers: x₁ = 1/p, D = N/√p, #blocks = p, volume 2N√p.
  const std::vector<double> speeds(9, 2.0);
  const auto formula = homogeneous_blocks_formula(speeds, 300.0);
  EXPECT_NEAR(formula.block_dim, 100.0, 1e-9);
  EXPECT_NEAR(formula.num_blocks, 9.0, 1e-9);
  EXPECT_NEAR(formula.comm_volume, 2.0 * 300.0 * 3.0, 1e-9);
}

TEST(Formula, MatchesPaperExpression) {
  // Comm_hom = 2N·√(Σ s_i / s₁).
  const std::vector<double> speeds{1.0, 4.0, 5.0};
  const double n = 50.0;
  const auto formula = homogeneous_blocks_formula(speeds, n);
  EXPECT_NEAR(formula.comm_volume, 2.0 * n * std::sqrt(10.0 / 1.0), 1e-9);
}

TEST(DemandDrivenCounts, FastWorkerGetsProportionallyMore) {
  // tau = per-block time; speeds 1 and 3 → counts ~ 1:3.
  const auto counts = demand_driven_counts({3.0, 1.0}, 40);
  EXPECT_EQ(counts[0] + counts[1], 40);
  EXPECT_NEAR(static_cast<double>(counts[1]) /
                  static_cast<double>(counts[0]),
              3.0, 0.35);
}

TEST(DemandDrivenCounts, ZeroBlocks) {
  const auto counts = demand_driven_counts({1.0, 1.0}, 0);
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[1], 0);
}

TEST(DemandDrivenCounts, MatchesEventSimulation) {
  util::Rng rng(21);
  for (int rep = 0; rep < 25; ++rep) {
    const auto p = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<double> tau;
    for (std::size_t i = 0; i < p; ++i) {
      tau.push_back(rng.uniform(0.1, 5.0));
    }
    const auto blocks = rng.uniform_int(0, 500);
    const auto fast = demand_driven_counts(tau, blocks);
    const auto slow = demand_driven_counts_simulated(tau, blocks);
    // Counts must agree exactly except possibly at exact-tie boundaries;
    // with continuous random tau, ties have measure zero.
    EXPECT_EQ(fast, slow) << "rep " << rep;
  }
}

TEST(DemandDrivenCounts, RejectsBadInput) {
  EXPECT_THROW((void)demand_driven_counts({}, 3), util::PreconditionError);
  EXPECT_THROW((void)demand_driven_counts({0.0}, 3),
               util::PreconditionError);
  EXPECT_THROW((void)demand_driven_counts({1.0}, -1),
               util::PreconditionError);
}

TEST(DemandDriven, HomogeneousKOneIsPerfect) {
  const std::vector<double> speeds(16, 1.0);
  const auto result = homogeneous_blocks_demand_driven(speeds, 160.0, 1);
  EXPECT_EQ(result.num_blocks, 16);
  for (const long long b : result.blocks_per_worker) EXPECT_EQ(b, 1);
  EXPECT_NEAR(result.imbalance, 0.0, 1e-12);
  // Volume equals the closed formula on homogeneous platforms.
  const auto formula = homogeneous_blocks_formula(speeds, 160.0);
  EXPECT_NEAR(result.comm_volume, formula.comm_volume, 1e-6);
}

TEST(DemandDriven, VolumeScalesAsSqrtK) {
  const std::vector<double> speeds{1.0, 3.0, 7.0};
  const double n = 100.0;
  const auto k1 = homogeneous_blocks_demand_driven(speeds, n, 1);
  const auto k4 = homogeneous_blocks_demand_driven(speeds, n, 4);
  // #blocks grows ~k, block perimeter shrinks ~1/√k → volume grows ~√k.
  EXPECT_NEAR(k4.comm_volume / k1.comm_volume, 2.0, 0.1);
}

TEST(DemandDriven, ImbalanceImprovesWithK) {
  // A strongly heterogeneous platform where k = 1 rounds badly.
  const std::vector<double> speeds{1.0, 1.5, 2.2, 9.7};
  const double n = 1000.0;
  const auto coarse = homogeneous_blocks_demand_driven(speeds, n, 1);
  const auto fine = homogeneous_blocks_demand_driven(speeds, n, 16);
  EXPECT_LT(fine.imbalance, coarse.imbalance);
  EXPECT_LT(fine.imbalance, 0.05);
}

TEST(RefineUntilBalanced, ReachesTarget) {
  util::Rng rng(31);
  for (int rep = 0; rep < 10; ++rep) {
    const auto plat = platform::make_platform(
        platform::SpeedModel::kUniform, 20, rng);
    const auto result = refine_until_balanced(plat.speeds(), 100.0, 0.01);
    EXPECT_LE(result.imbalance, 0.01) << "rep " << rep;
    EXPECT_GE(result.k, 1);
  }
}

TEST(RefineUntilBalanced, HomogeneousNeedsNoRefinement) {
  const std::vector<double> speeds(10, 5.0);
  const auto result = refine_until_balanced(speeds, 100.0, 0.01);
  EXPECT_EQ(result.k, 1);
  EXPECT_NEAR(result.imbalance, 0.0, 1e-12);
}

TEST(RefineUntilBalanced, GivesUpAtMaxK) {
  // An irrational speed ratio cannot balance to 1e-9 even with 512² blocks
  // (the imbalance is near one block in 10^5), so the loop must stop at
  // kMaxRefinementK.
  const std::vector<double> speeds{1.0, 3.14159265358979};
  const auto result = refine_until_balanced(speeds, 100.0, 1e-9);
  EXPECT_EQ(result.k, kMaxRefinementK);
  EXPECT_GT(result.imbalance, 1e-9);
}

// Property: demand-driven never leaves the makespan worse than
// (perfect share) + one block on the slowest worker, and total assigned
// blocks is exact.
class DemandDrivenProperty : public ::testing::TestWithParam<int> {};

TEST_P(DemandDrivenProperty, GreedyIsNearBalanced) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 11);
  const auto p = static_cast<std::size_t>(rng.uniform_int(2, 30));
  std::vector<double> tau;
  for (std::size_t i = 0; i < p; ++i) tau.push_back(rng.uniform(0.2, 4.0));
  const long long blocks = rng.uniform_int(1, 2000);
  const auto counts = demand_driven_counts(tau, blocks);

  long long total = 0;
  double makespan = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    total += counts[i];
    makespan = std::max(makespan,
                        static_cast<double>(counts[i]) * tau[i]);
  }
  EXPECT_EQ(total, blocks);

  // List-scheduling bound for identical jobs: makespan <= ideal + max tau.
  double rate = 0.0;
  for (const double t : tau) rate += 1.0 / t;
  const double ideal = static_cast<double>(blocks) / rate;
  const double tau_max = *std::max_element(tau.begin(), tau.end());
  EXPECT_LE(makespan, ideal + tau_max + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DemandDrivenProperty,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace nldl::partition
