// Multi-round (multi-installment) divisible load scheduling.
//
// The paper's Section 1.2 recalls the two classical dissemination modes:
// single installment and multiple rounds, where "the communications will
// be shorter (less latency) and pipelined, and the workers will be able to
// compute the current chunk while receiving data for the next one". This
// module provides the multi-round machinery for the one-port star:
//   - uniform rounds (equal installments),
//   - geometric rounds (installments growing by a fixed ratio — the shape
//     the classical multi-round analyses derive for one-port stars),
//   - an auto-tuner that picks the best round count by simulation.
#pragma once

#include <cstddef>
#include <vector>

#include "platform/platform.hpp"
#include "sim/engine.hpp"

namespace nldl::dlt {

struct MultiRoundPlan {
  std::vector<sim::ChunkAssignment> schedule;
  std::size_t rounds = 1;
  double simulated_makespan = 0.0;
};

/// Uniform multi-round: the one-port single-round allocation split into R
/// equal installments per worker, interleaved round-robin. Simulated under
/// the one-port model with pipelining.
[[nodiscard]] MultiRoundPlan uniform_multi_round(
    const platform::Platform& platform, double total_load,
    std::size_t rounds);

/// Geometric multi-round: per-worker installments grow by `ratio` from
/// round to round (ratio > 1 front-loads later rounds, shrinking the
/// startup gap). Total per worker matches the single-round optimum.
[[nodiscard]] MultiRoundPlan geometric_multi_round(
    const platform::Platform& platform, double total_load,
    std::size_t rounds, double ratio);

/// Try round counts 1..16 (uniform and a small grid of geometric ratios)
/// and return the plan with the smallest simulated makespan.
[[nodiscard]] MultiRoundPlan best_multi_round(
    const platform::Platform& platform, double total_load);

}  // namespace nldl::dlt
