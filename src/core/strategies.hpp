// The paper's three data-distribution strategies, under one interface
// (Section 4.1 / 4.3).
//
//   kHomogeneousBlocks         Comm_hom   — MapReduce-style square blocks
//                                           sized for the slowest worker,
//                                           demand driven (k = 1).
//   kHomogeneousBlocksRefined  Comm_hom/k — same, shrinking blocks until
//                                           load imbalance e <= 1 %.
//   kHeterogeneousBlocks       Comm_het   — one rectangle per worker via
//                                           the PERI-SUM partitioner.
//
// All evaluations report the communication volume, its ratio to the lower
// bound LB = 2N·Σ√x_i, and the achieved load imbalance.
#pragma once

#include <string>
#include <vector>

#include "partition/block_homogeneous.hpp"

namespace nldl::core {

enum class Strategy {
  kHomogeneousBlocks,
  kHomogeneousBlocksRefined,
  kHeterogeneousBlocks,
};

[[nodiscard]] std::string to_string(Strategy strategy);

struct StrategyOptions {
  /// Target for Comm_hom/k refinement (the paper stops at e <= 1 %).
  double imbalance_target = 0.01;
};

struct StrategyEvaluation {
  Strategy strategy{};
  double comm_volume = 0.0;
  double lower_bound = 0.0;
  double ratio_to_lower_bound = 0.0;
  /// e = (t_max − t_min)/t_min over the workers that received work; 0 for
  /// Comm_het (areas exactly proportional).
  double load_imbalance = 0.0;
  /// Workers the block hand-out starved (0 for Comm_het).
  std::size_t idle_workers = 0;
  int refinement_k = 1;       ///< k used (1 unless refined)
  long long num_chunks = 0;   ///< blocks handed out, or p rectangles
};

/// Evaluate one strategy on a platform given by worker speeds, for an N×N
/// computational domain (the outer product of two N-vectors). All volume
/// ratios are invariant in N; N only scales absolute volumes.
[[nodiscard]] StrategyEvaluation evaluate_strategy(
    Strategy strategy, const std::vector<double>& speeds, double n,
    const StrategyOptions& options = {});

/// Evaluate all three strategies.
[[nodiscard]] std::vector<StrategyEvaluation> evaluate_all_strategies(
    const std::vector<double>& speeds, double n,
    const StrategyOptions& options = {});

/// The paper's Section 4.1.3 lower bound on the ratio
/// ρ = Comm_hom / Comm_het >= (4/7)·Σs_i / (√s_1·Σ√s_i).
[[nodiscard]] double rho_lower_bound(const std::vector<double>& speeds);

/// Closed form for the two-class platform of Section 4.1.3:
/// ρ >= (1+k)/(1+√k) >= √k − 1.
[[nodiscard]] double rho_two_class_bound(double k);

}  // namespace nldl::core
