#include "core/strategies.hpp"

#include <cmath>

#include "partition/lower_bound.hpp"
#include "partition/peri_sum.hpp"
#include "util/assert.hpp"

namespace nldl::core {

std::string to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::kHomogeneousBlocks:
      return "Comm_hom";
    case Strategy::kHomogeneousBlocksRefined:
      return "Comm_hom/k";
    case Strategy::kHeterogeneousBlocks:
      return "Comm_het";
  }
  NLDL_UNREACHABLE("unknown Strategy");
}

StrategyEvaluation evaluate_strategy(Strategy strategy,
                                     const std::vector<double>& speeds,
                                     double n,
                                     const StrategyOptions& options) {
  NLDL_REQUIRE(!speeds.empty(), "at least one worker required");
  NLDL_REQUIRE(n > 0.0, "domain size must be positive");

  StrategyEvaluation eval;
  eval.strategy = strategy;
  eval.lower_bound = partition::comm_lower_bound(speeds, n);

  switch (strategy) {
    case Strategy::kHomogeneousBlocks: {
      const auto blocks =
          partition::homogeneous_blocks_demand_driven(speeds, n, 1);
      eval.comm_volume = blocks.comm_volume;
      eval.load_imbalance = blocks.imbalance;
      eval.idle_workers = blocks.idle_workers;
      eval.refinement_k = 1;
      eval.num_chunks = blocks.num_blocks;
      break;
    }
    case Strategy::kHomogeneousBlocksRefined: {
      const auto blocks = partition::refine_until_balanced(
          speeds, n, options.imbalance_target);
      eval.comm_volume = blocks.comm_volume;
      eval.load_imbalance = blocks.imbalance;
      eval.idle_workers = blocks.idle_workers;
      eval.refinement_k = blocks.k;
      eval.num_chunks = blocks.num_blocks;
      break;
    }
    case Strategy::kHeterogeneousBlocks: {
      const auto part = partition::peri_sum_partition(speeds);
      eval.comm_volume = n * part.total_half_perimeter;
      eval.load_imbalance = 0.0;  // areas exactly proportional to speeds
      eval.refinement_k = 1;
      eval.num_chunks = static_cast<long long>(speeds.size());
      break;
    }
  }
  eval.ratio_to_lower_bound = eval.comm_volume / eval.lower_bound;
  return eval;
}

std::vector<StrategyEvaluation> evaluate_all_strategies(
    const std::vector<double>& speeds, double n,
    const StrategyOptions& options) {
  return {
      evaluate_strategy(Strategy::kHomogeneousBlocks, speeds, n, options),
      evaluate_strategy(Strategy::kHomogeneousBlocksRefined, speeds, n,
                        options),
      evaluate_strategy(Strategy::kHeterogeneousBlocks, speeds, n, options),
  };
}

double rho_lower_bound(const std::vector<double>& speeds) {
  NLDL_REQUIRE(!speeds.empty(), "at least one worker required");
  double total = 0.0;
  double sqrt_sum = 0.0;
  double slowest = speeds.front();
  for (const double s : speeds) {
    NLDL_REQUIRE(s > 0.0, "speeds must be positive");
    total += s;
    sqrt_sum += std::sqrt(s);
    slowest = std::min(slowest, s);
  }
  return 4.0 / 7.0 * total / (std::sqrt(slowest) * sqrt_sum);
}

double rho_two_class_bound(double k) {
  NLDL_REQUIRE(k >= 1.0, "speed ratio k must be >= 1");
  return (1.0 + k) / (1.0 + std::sqrt(k));
}

}  // namespace nldl::core
