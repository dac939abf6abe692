// The Section 4.3 simulation study (Figures 4a, 4b, 4c): sweep the number
// of processors, draw random platforms, evaluate all three strategies, and
// report mean ± stddev of each strategy's communication ratio to the lower
// bound. The trial grid runs through util::Sweep: every trial consumes its
// own pre-split RNG sub-stream and results are reduced in trial order, so
// the output is bit-identical for any thread count.
//
// Also hosts the Section 2 "model independence" sweep: the makespan of the
// equal-split DLT round under a bounded-multiport master of varying
// capacity (simulated with sim::Engine), showing that the communication
// model moves the round's makespan but not the vanishing share of work it
// covers.
#pragma once

#include <cstdint>
#include <vector>

#include "core/strategies.hpp"
#include "platform/speed_distributions.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace nldl::core {

/// One panel of the study at the paper's processor counts p = 10, 20, 40,
/// 60, 80, 100. Platforms are drawn by platform::make_platform at the
/// paper's speed-model parameters, and strategies are evaluated on a 1 × 1
/// domain: the ratios are N-invariant, so N would only scale absolute
/// volumes.
struct Fig4Config {
  platform::SpeedModel model = platform::SpeedModel::kHomogeneous;
  /// The paper averages 100 random trials per point.
  std::size_t trials = 100;
  std::uint64_t seed = util::Rng::kDefaultSeed;
  /// Worker threads for the trial sweep: 1 = run serially on the calling
  /// thread, 0 = one per hardware thread. The result is the same bit for
  /// bit whatever the value.
  std::size_t threads = 1;
  StrategyOptions strategy_options{};
};

struct Fig4Row {
  std::size_t p = 0;
  util::RunningStats het;    ///< Comm_het / LB
  util::RunningStats hom;    ///< Comm_hom / LB
  util::RunningStats hom_k;  ///< Comm_hom/k / LB
  util::RunningStats k_used; ///< refinement k chosen by Comm_hom/k
  /// e of plain Comm_hom over the workers it kept busy (always finite).
  util::RunningStats hom_imbalance;
  /// Trials whose imbalance sample was non-finite and therefore excluded
  /// from hom_imbalance — reported, never silently dropped. 0 by
  /// construction since imbalance is defined over busy workers.
  std::size_t hom_imbalance_dropped = 0;
  /// Trials where plain Comm_hom left at least one worker without a block
  /// (the granularity failure the old +inf imbalance conflated with e).
  std::size_t hom_idle_trials = 0;
};

/// Run the sweep: one row per p, in increasing p. Deterministic given the
/// seed (each trial draws its own sub-stream, so rows are independent of
/// sweep order and thread count).
[[nodiscard]] std::vector<Fig4Row> run_fig4(const Fig4Config& config);

/// Paper-style table: one row per p, mean and stddev per strategy.
[[nodiscard]] util::Table fig4_table(const std::vector<Fig4Row>& rows);

/// Section 2 model-independence sweep: one optimal equal-split DLT round
/// of an alpha = 2 workload on 64 homogeneous workers (c = w = 1),
/// replayed under bounded-multiport masters of capacity 1, 4, 16, 64 and
/// +inf (= parallel links), one row each.
struct CapacitySweepConfig {
  double total_load = 10000.0;
  /// Worker threads for the capacity sweep (1 = serial, 0 = hardware);
  /// results are bit-identical whatever the value.
  std::size_t threads = 1;
};

struct CapacitySweepRow {
  double capacity = 0.0;        ///< master aggregate bandwidth
  double comm_phase_end = 0.0;  ///< last transfer completion
  double makespan = 0.0;        ///< round makespan under this master
  /// Share of the total work the round covers, 1/p^(alpha-1) — a property
  /// of the division, identical for every capacity.
  double covered_fraction = 0.0;
};

[[nodiscard]] std::vector<CapacitySweepRow> capacity_sweep(
    const CapacitySweepConfig& config);

[[nodiscard]] util::Table capacity_sweep_table(
    const std::vector<CapacitySweepRow>& rows);

}  // namespace nldl::core
