// Cross-module integration tests: the paper's end-to-end stories.
#include <gtest/gtest.h>

#include <cmath>

#include "core/nldl.hpp"

namespace nldl {
namespace {

// Story 1 (Section 2): a quadratic workload distributed by DLT leaves
// almost everything undone, while the linear workload is fully covered —
// verified through the simulator, not just formulas.
TEST(Integration, NoFreeLunchEndToEnd) {
  const auto plat = platform::Platform::homogeneous(64, 1.0);
  const double n = 6400.0;

  const auto linear = dlt::linear_parallel_single_round(plat, n);
  std::vector<sim::ChunkAssignment> schedule;
  for (std::size_t i = 0; i < plat.size(); ++i) {
    schedule.push_back({i, linear.amounts[i]});
  }
  const auto linear_sim = sim::Engine(plat).run(
      schedule, sim::CommModelKind::kParallelLinks);
  EXPECT_NEAR(linear_sim.makespan, linear.makespan, 1e-9);

  const auto quadratic = dlt::nonlinear_parallel_single_round(plat, n, 2.0);
  EXPECT_NEAR(quadratic.remaining_fraction,
              dlt::remaining_fraction_homogeneous(64, 2.0), 1e-6);
  EXPECT_GT(quadratic.remaining_fraction, 0.98);
}

// Story 2 (Section 3): sample sort turns sorting into a divisible load —
// executed for real, with per-phase costs dominated by the parallel phase.
TEST(Integration, SortingIsAlmostDivisible) {
  util::Rng rng(1);
  const std::size_t n = 1 << 18;
  std::vector<double> data(n);
  for (double& v : data) v = rng.uniform();

  util::ThreadPool pool(2);
  sort::SampleSortConfig config;
  config.num_buckets = 8;
  config.pool = &pool;
  sort::SampleSortStats stats;
  const auto sorted = sort::sample_sort(std::move(data), config, &stats);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  // Bucket balance within the theorem's slack.
  EXPECT_LT(stats.max_over_expected,
            1.0 + std::pow(1.0 / std::log(double(n)), 1.0 / 3.0) + 0.1);
}

// Story 3 (Section 4.1): on a strongly heterogeneous platform, the
// PERI-SUM distribution ships far less data than MapReduce-style blocks,
// with both computing the exact same outer product.
TEST(Integration, HeterogeneityAwarePartitioningWins) {
  util::Rng rng(2);
  const std::size_t n = 210;
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const auto plat = platform::Platform::two_class(6, 1.0, 25.0);
  const auto speeds = plat.speeds();

  const auto layout = partition::discretize(
      partition::peri_sum_partition(speeds), static_cast<long long>(n));
  ASSERT_TRUE(partition::verify_exact_cover(layout));
  const auto het = linalg::outer_product_partitioned(a, b, layout, speeds);

  const auto formula = partition::homogeneous_blocks_formula(speeds,
                                                             double(n));
  const auto block = std::max(1LL,
                              static_cast<long long>(formula.block_dim));
  // Round n down to a multiple of the block for the blocked run.
  const std::size_t n_round = (n / static_cast<std::size_t>(block)) *
                              static_cast<std::size_t>(block);
  std::vector<double> a2(a.begin(), a.begin() + n_round);
  std::vector<double> b2(b.begin(), b.begin() + n_round);
  const auto hom = linalg::outer_product_blocked(a2, b2, block, speeds);

  const auto reference = linalg::outer_product_serial(a, b);
  EXPECT_TRUE(het.result.approx_equal(reference, 1e-12));

  const double het_per_cell = static_cast<double>(het.total_elements) /
                              (double(n) * double(n));
  const double hom_per_cell = static_cast<double>(hom.total_elements) /
                              (double(n_round) * double(n_round));
  EXPECT_GT(hom_per_cell, 1.5 * het_per_cell);
}

// Story 4 (Section 4.2): matmul inherits the outer-product ratio; the
// executable SUMMA on a PERI-SUM layout matches the reference product and
// its measured communication equals N × Σ half-perimeters.
TEST(Integration, MatmulInheritsTheRatio) {
  util::Rng rng(3);
  const std::size_t n = 60;
  const auto a = linalg::Matrix::random(n, n, rng);
  const auto b = linalg::Matrix::random(n, n, rng);
  const std::vector<double> speeds{1.0, 2.0, 4.0, 8.0};
  const auto layout = partition::discretize(
      partition::peri_sum_partition(speeds), static_cast<long long>(n));
  const auto dist = linalg::matmul_outer_product(a, b, layout, speeds, 5);
  EXPECT_TRUE(dist.result.approx_equal(linalg::multiply_naive(a, b), 1e-9));
  EXPECT_EQ(dist.total_elements,
            static_cast<long long>(n) * layout.total_half_perimeter);
}

// Story 5 (Conclusion): affinity-aware demand-driven scheduling reduces
// MapReduce bytes on the matmul job without hurting balance much. Both
// schedulers beat the no-cache MapReduce accounting (every task ships its
// own inputs).
TEST(Integration, AffinityDirectiveHelps) {
  const long long n = 64;
  const long long block = 8;
  const auto tasks = mapreduce::matmul_tasks(n, block);
  mapreduce::ClusterConfig plain;
  plain.speeds = {1.0, 2.0, 3.0, 4.0};
  plain.bytes_per_block = double(block) * double(block);
  const auto blind = mapreduce::run_cluster(tasks, plain);

  auto aware = plain;
  aware.affinity_aware = true;
  const auto smart = mapreduce::run_cluster(tasks, aware);

  const double no_cache = mapreduce::matmul_replication_volume(
      double(n), double(block));
  EXPECT_LT(smart.total_bytes, blind.total_bytes);
  EXPECT_LT(blind.total_bytes, no_cache);
  EXPECT_LT(smart.imbalance, 0.25);
}

// Story 6 (Section 4.3 in miniature): the three strategies ranked on one
// random platform exactly as the paper's figures show.
TEST(Integration, StrategyRankingOnRandomPlatform) {
  util::Rng rng(4);
  const auto plat = platform::make_platform(
      platform::SpeedModel::kLogNormal, 60, rng);
  const auto speeds = plat.speeds();
  const auto evals = core::evaluate_all_strategies(speeds, 1000.0);
  const auto& hom = evals[0];
  const auto& hom_k = evals[1];
  const auto& het = evals[2];
  EXPECT_LT(het.ratio_to_lower_bound, 1.05);
  EXPECT_GT(hom.ratio_to_lower_bound, het.ratio_to_lower_bound);
  EXPECT_GE(hom_k.comm_volume, hom.comm_volume - 1e-9);
  EXPECT_LE(hom_k.load_imbalance, 0.01);
}

}  // namespace
}  // namespace nldl
