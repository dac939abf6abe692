// Cross-module metamorphic and conservation properties: invariances that
// must hold across the library's moving parts, regardless of parameters.
#include <gtest/gtest.h>

#include <cmath>

#include "core/nldl.hpp"

namespace nldl {
namespace {

// --- Simulator scaling: multiplying every chunk size by s multiplies all
// linear-cost times by s (and by s^alpha for the compute part).
class SimulatorScaling : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorScaling, LinearTimesScaleLinearly) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 5);
  const auto plat = platform::make_platform(
      platform::SpeedModel::kUniform, 4, rng);
  std::vector<sim::ChunkAssignment> schedule;
  for (int i = 0; i < 10; ++i) {
    schedule.push_back(
        {static_cast<std::size_t>(rng.uniform_int(0, 3)),
         rng.uniform(0.1, 5.0)});
  }
  const sim::Engine engine(plat);
  const double base =
      engine.run(schedule, sim::CommModelKind::kParallelLinks).makespan;
  const double scale = 3.5;
  for (auto& chunk : schedule) chunk.size *= scale;
  const double scaled =
      engine.run(schedule, sim::CommModelKind::kParallelLinks).makespan;
  EXPECT_NEAR(scaled, scale * base, 1e-9 * scaled);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorScaling, ::testing::Range(0, 6));

// --- MapReduce mass conservation: with a sum reducer, the total output
// value equals the total emitted value, for any reducer count or pool.
class EngineConservation : public ::testing::TestWithParam<int> {};

TEST_P(EngineConservation, SumIsPreserved) {
  const int variant = GetParam();
  util::ThreadPool pool(2);
  mapreduce::JobConfig config;
  config.num_splits = 25;
  config.num_reducers = static_cast<std::size_t>(1 + variant % 7);
  config.pool = (variant % 3) == 0 ? &pool : nullptr;

  double emitted = 0.0;
  std::mutex mutex;
  const auto result = mapreduce::run_job(
      config,
      [&](std::size_t split, std::vector<mapreduce::KV>& out) {
        util::Rng rng(split * 1000 + static_cast<std::size_t>(variant));
        double local = 0.0;
        for (int i = 0; i < 40; ++i) {
          const auto key =
              static_cast<std::uint64_t>(rng.uniform_int(0, 12));
          const double value = rng.uniform(-5.0, 5.0);
          out.push_back({key, value});
          local += value;
        }
        std::lock_guard lock(mutex);
        emitted += local;
      },
      [](std::uint64_t, std::span<const double> values) {
        double sum = 0.0;
        for (const double v : values) sum += v;
        return sum;
      });

  double reduced = 0.0;
  for (const auto& kv : result.output) reduced += kv.value;
  EXPECT_NEAR(reduced, emitted, 1e-9 * std::max(1.0, std::abs(emitted)));
}

INSTANTIATE_TEST_SUITE_P(Variants, EngineConservation,
                         ::testing::Range(0, 12));

// --- Blocked outer product and the demand-driven counts must agree on
// who computes how many blocks.
TEST(CrossChecks, BlockedOuterProductUsesDemandDrivenCounts) {
  const std::size_t n = 120;
  const long long block = 12;
  const std::vector<double> speeds{1.0, 2.0, 3.0};
  std::vector<double> a(n, 1.0);
  std::vector<double> b(n, 1.0);
  const auto dist = linalg::outer_product_blocked(a, b, block, speeds);

  std::vector<double> tau(speeds.size());
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    tau[i] = double(block) * double(block) / speeds[i];
  }
  const auto counts = partition::demand_driven_counts(tau, 100);
  for (std::size_t w = 0; w < speeds.size(); ++w) {
    EXPECT_EQ(dist.elements_per_worker[w], counts[w] * 2 * block);
  }
}

// --- Strategy evaluation consistency: Comm_het's volume equals the
// continuous PERI-SUM partition cost times N, and the discretized layout
// converges to it.
TEST(CrossChecks, StrategyVolumeMatchesGeometry) {
  const std::vector<double> speeds{1.0, 4.0, 4.0, 7.0};
  const double n = 2048.0;
  const auto eval = core::evaluate_strategy(
      core::Strategy::kHeterogeneousBlocks, speeds, n);
  const auto part = partition::peri_sum_partition(speeds);
  EXPECT_NEAR(eval.comm_volume, n * part.total_half_perimeter, 1e-9 * n);
  const auto layout =
      partition::discretize(part, static_cast<long long>(n));
  EXPECT_NEAR(static_cast<double>(layout.total_half_perimeter),
              eval.comm_volume,
              2.0 * static_cast<double>(speeds.size()) + 4.0);
}

// --- Nonlinear DLT degenerates continuously: alpha → 1⁺ approaches the
// linear closed form (no discontinuity at the boundary).
TEST(CrossChecks, NonlinearApproachesLinearAsAlphaTendsToOne) {
  const auto plat = platform::Platform::from_speeds({1.0, 2.0, 5.0}, 0.5);
  const auto linear = dlt::linear_parallel_single_round(plat, 60.0);
  double previous_gap = std::numeric_limits<double>::infinity();
  for (const double alpha : {1.5, 1.1, 1.01, 1.001}) {
    const auto nonlinear =
        dlt::nonlinear_parallel_single_round(plat, 60.0, alpha);
    double gap = 0.0;
    for (std::size_t i = 0; i < plat.size(); ++i) {
      gap = std::max(gap,
                     std::abs(nonlinear.amounts[i] - linear.amounts[i]));
    }
    EXPECT_LT(gap, previous_gap + 1e-12);
    previous_gap = gap;
  }
  EXPECT_LT(previous_gap, 0.05);
}

// --- Sample sort is invariant to a global shift of the keys (ordering
// is all that matters).
TEST(CrossChecks, SampleSortShiftInvariance) {
  util::Rng rng(11);
  std::vector<double> data(20000);
  for (double& v : data) v = rng.uniform();
  sort::SampleSortConfig config;
  config.num_buckets = 6;
  config.seed = 77;
  const auto sorted = sort::sample_sort(data, config);
  for (double& v : data) v += 1000.0;
  const auto shifted = sort::sample_sort(data, config);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_NEAR(shifted[i], sorted[i] + 1000.0, 1e-9);
  }
}

// --- The Fig-4 runner's Comm_hom ratio must be reproducible from the
// strategy API on the same platform draw (no hidden state).
TEST(CrossChecks, ExperimentRunnerMatchesDirectEvaluation) {
  core::Fig4Config config;
  config.model = platform::SpeedModel::kUniform;
  config.trials = 1;
  config.seed = 4242;
  const auto rows = core::run_fig4(config);

  util::Rng master(config.seed);
  util::Rng trial_rng = master.split();
  const auto plat = platform::make_platform(config.model, 10, trial_rng);
  const auto het = core::evaluate_strategy(
      core::Strategy::kHeterogeneousBlocks, plat.speeds(), 1.0);
  EXPECT_DOUBLE_EQ(rows[0].het.mean(), het.ratio_to_lower_bound);
}

}  // namespace
}  // namespace nldl
