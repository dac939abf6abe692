// The Homogeneous Blocks strategy (paper Section 4.1.1) and its realistic
// refinement Comm_hom/k (Section 4.3).
//
// The N×N computational domain is split into square blocks of dimension
// D = √x₁·N (x₁ = normalized speed of the *slowest* worker), so the slowest
// worker handles exactly one block. Blocks are handed out demand-driven:
// each worker grabs a new block as soon as it finishes one — exactly the
// MapReduce task-pull model. Every block ships its own 2D inputs, with no
// reuse across blocks, so
//   Comm_hom = (#blocks) · 2D = 2N·√(Σ s_i / s₁).
//
// With integer block counts the demand-driven assignment can leave a large
// load imbalance e = (t_max − t_min)/t_min. The Comm_hom/k strategy divides
// the block *size* (its area, i.e. the amount of computation per block) by
// k = 1, 2, 3, … until e ≤ 1 %: block dimension D/√k, k/x₁ blocks, √k× the
// communication volume, much better balance. (Dividing the *dimension* by
// k instead would cost k× the volume — well above the 15–30× ratios the
// paper reports, which is how we disambiguated the paper's wording.)
#pragma once

#include <cstdint>
#include <vector>

namespace nldl::partition {

/// Continuous-model quantities (the paper's closed formulas).
struct HomogeneousBlocksFormula {
  double block_dim = 0.0;    ///< D = √x₁·N
  double num_blocks = 0.0;   ///< 1/x₁ (not necessarily integer)
  double comm_volume = 0.0;  ///< 2N/√x₁ = 2N·√(Σ s_i / s₁)
};

[[nodiscard]] HomogeneousBlocksFormula homogeneous_blocks_formula(
    const std::vector<double>& speeds, double n);

/// Discrete demand-driven evaluation for refinement divisor k.
struct DemandDrivenBlocks {
  int k = 1;                    ///< block *area* divisor
  long long num_blocks = 0;     ///< total blocks handed out
  double block_dim = 0.0;       ///< D/√k
  std::vector<long long> blocks_per_worker;
  double comm_volume = 0.0;     ///< num_blocks · 2·block_dim
  double makespan = 0.0;        ///< max_i blocks_i · w_i · block_dim²
  /// e = (t_max − t_min)/t_min over the workers that received at least one
  /// block. Always finite: workers left without a block are a granularity
  /// failure reported via idle_workers, not an infinite imbalance.
  double imbalance = 0.0;
  /// Workers that received no block at all (too few blocks for p).
  std::size_t idle_workers = 0;
};

/// Evaluate Comm_hom/k for a fixed k (k = 1 is plain Comm_hom). Block
/// counts follow the demand-driven pull: worker i finishes blocks at
/// multiples of w_i·(D/k)², and blocks are claimed in global finish-time
/// order. Computed in O(p·log) via an order-statistic argument (see
/// demand_driven_counts); an O(B·log p) event simulation is available for
/// cross-checking.
[[nodiscard]] DemandDrivenBlocks homogeneous_blocks_demand_driven(
    const std::vector<double>& speeds, double n, int k);

/// The largest k refine_until_balanced tries.
inline constexpr int kMaxRefinementK = 512;

/// The paper's refinement loop: smallest k with every worker busy and
/// imbalance <= target_e (the paper's is 1 %). Gives up (returning the
/// last k tried) after kMaxRefinementK.
[[nodiscard]] DemandDrivenBlocks refine_until_balanced(
    const std::vector<double>& speeds, double n, double target_e);

/// Closed-form demand-driven block counts: hand out `num_blocks` identical
/// blocks where worker i takes time tau_i per block; returns how many each
/// worker completes under the "grab when free" policy (ties broken by
/// lower worker index).
[[nodiscard]] std::vector<long long> demand_driven_counts(
    const std::vector<double>& tau, long long num_blocks);

/// Reference event-driven simulation of the same policy (for tests; O(B·log p)).
[[nodiscard]] std::vector<long long> demand_driven_counts_simulated(
    const std::vector<double>& tau, long long num_blocks);

}  // namespace nldl::partition
