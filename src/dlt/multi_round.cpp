#include "dlt/multi_round.hpp"

#include <cmath>

#include "dlt/linear_dlt.hpp"
#include "util/assert.hpp"

namespace nldl::dlt {

namespace {

MultiRoundPlan simulate_plan(const platform::Platform& platform,
                             std::vector<sim::ChunkAssignment> schedule,
                             std::size_t rounds) {
  MultiRoundPlan plan;
  plan.schedule = std::move(schedule);
  plan.rounds = rounds;
  const sim::Engine engine(platform);
  plan.simulated_makespan =
      engine.run(plan.schedule, sim::CommModelKind::kOnePort).makespan;
  return plan;
}

}  // namespace

MultiRoundPlan uniform_multi_round(const platform::Platform& platform,
                                   double total_load, std::size_t rounds) {
  NLDL_REQUIRE(rounds >= 1, "at least one round required");
  const Allocation base = linear_one_port_single_round(platform, total_load);
  return simulate_plan(platform, multi_round_schedule(base, rounds), rounds);
}

MultiRoundPlan geometric_multi_round(const platform::Platform& platform,
                                     double total_load, std::size_t rounds,
                                     double ratio) {
  NLDL_REQUIRE(rounds >= 1, "at least one round required");
  NLDL_REQUIRE(ratio > 0.0, "round growth ratio must be positive");
  const Allocation base = linear_one_port_single_round(platform, total_load);
  const std::size_t p = platform.size();

  // Normalizing constant for the geometric weights r^0..r^(R-1).
  double weight_sum = 0.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    weight_sum += std::pow(ratio, static_cast<double>(round));
  }

  std::vector<sim::ChunkAssignment> schedule;
  schedule.reserve(p * rounds);
  for (std::size_t round = 0; round < rounds; ++round) {
    const double weight =
        std::pow(ratio, static_cast<double>(round)) / weight_sum;
    for (std::size_t worker = 0; worker < p; ++worker) {
      const double piece = base.amounts[worker] * weight;
      if (piece > 0.0) schedule.push_back({worker, piece});
    }
  }
  return simulate_plan(platform, std::move(schedule), rounds);
}

MultiRoundPlan best_multi_round(const platform::Platform& platform,
                                double total_load) {
  MultiRoundPlan best = uniform_multi_round(platform, total_load, 1);
  for (std::size_t rounds = 2; rounds <= 16; ++rounds) {
    for (const double ratio : {1.0, 1.5, 2.0, 3.0}) {
      MultiRoundPlan candidate =
          ratio == 1.0  // nldl-lint: allow(double-eq): ratio is an exact literal from the candidate list
              ? uniform_multi_round(platform, total_load, rounds)
              : geometric_multi_round(platform, total_load, rounds, ratio);
      if (candidate.simulated_makespan < best.simulated_makespan) {
        best = std::move(candidate);
      }
    }
  }
  return best;
}

}  // namespace nldl::dlt
