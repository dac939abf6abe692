#include "core/experiments.hpp"

#include <array>
#include <cmath>
#include <limits>

#include "dlt/analysis.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/sweep.hpp"

namespace nldl::core {

namespace {

/// The paper's Section 4.3 processor counts.
constexpr std::array<std::size_t, 6> kProcessorCounts = {10, 20, 40,
                                                         60, 80, 100};

/// The capacity sweep's platform and workload: 64 homogeneous workers
/// with c = w = 1, alpha = 2.
constexpr std::size_t kSweepWorkers = 64;
constexpr double kSweepAlpha = 2.0;

/// Everything one trial contributes to its Fig4Row. Trials are evaluated
/// in any order (possibly concurrently) but reduced strictly in trial
/// order, which keeps the Welford accumulators bit-identical to a serial
/// sweep.
struct TrialOutcome {
  double het = 0.0;
  double hom = 0.0;
  double hom_k = 0.0;
  double k_used = 0.0;
  double hom_imbalance = 0.0;
  bool hom_idle = false;  ///< Comm_hom starved at least one worker
};

TrialOutcome evaluate_trial(const Fig4Config& config, std::size_t p,
                            util::Rng rng) {
  const platform::Platform plat = platform::make_platform(config.model, p, rng);
  const std::vector<double> speeds = plat.speeds();

  const auto het = evaluate_strategy(Strategy::kHeterogeneousBlocks, speeds,
                                     1.0, config.strategy_options);
  const auto hom = evaluate_strategy(Strategy::kHomogeneousBlocks, speeds,
                                     1.0, config.strategy_options);
  const auto hom_k = evaluate_strategy(Strategy::kHomogeneousBlocksRefined,
                                       speeds, 1.0, config.strategy_options);

  TrialOutcome outcome;
  outcome.het = het.ratio_to_lower_bound;
  outcome.hom = hom.ratio_to_lower_bound;
  outcome.hom_k = hom_k.ratio_to_lower_bound;
  outcome.k_used = static_cast<double>(hom_k.refinement_k);
  outcome.hom_imbalance = hom.load_imbalance;
  outcome.hom_idle = hom.idle_workers > 0;
  return outcome;
}

}  // namespace

std::vector<Fig4Row> run_fig4(const Fig4Config& config) {
  NLDL_REQUIRE(config.trials >= 1, "at least one trial required");

  // The sweep grid: p (outer) × trial (inner), the exact flat order the
  // original serial loop used. util::Sweep pre-splits one RNG sub-stream
  // per point in that order and dispatches onto a thread pool, so the
  // sampled platforms are independent of the thread count.
  std::vector<double> ps;
  ps.reserve(kProcessorCounts.size());
  for (const std::size_t p : kProcessorCounts) {
    ps.push_back(static_cast<double>(p));
  }
  util::Grid grid;
  grid.axis("p", std::move(ps)).axis("trial", config.trials);

  util::SweepOptions options;
  options.threads = config.threads;
  options.seed = config.seed;
  const util::Sweep sweep(std::move(grid), options);

  const std::vector<TrialOutcome> outcomes = sweep.map<TrialOutcome>(
      [&config](const util::SweepPoint& point, util::Rng& rng) {
        const auto p = static_cast<std::size_t>(point.value("p"));
        return evaluate_trial(config, p, rng);
      });

  // Deterministic reduction: push every trial in flat (p-major) order.
  std::vector<Fig4Row> rows;
  rows.reserve(kProcessorCounts.size());
  for (std::size_t pi = 0; pi < kProcessorCounts.size(); ++pi) {
    Fig4Row row;
    row.p = kProcessorCounts[pi];
    for (std::size_t trial = 0; trial < config.trials; ++trial) {
      const TrialOutcome& outcome = outcomes[pi * config.trials + trial];
      row.het.push(outcome.het);
      row.hom.push(outcome.hom);
      row.hom_k.push(outcome.hom_k);
      row.k_used.push(outcome.k_used);
      // The imbalance is finite by construction now; if it ever stops
      // being finite the trial is *counted* as dropped, never silently
      // hidden from the statistic.
      if (std::isfinite(outcome.hom_imbalance)) {
        row.hom_imbalance.push(outcome.hom_imbalance);
      } else {
        ++row.hom_imbalance_dropped;
      }
      if (outcome.hom_idle) ++row.hom_idle_trials;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

util::Table fig4_table(const std::vector<Fig4Row>& rows) {
  util::Table table({"p", "Comm_het/LB (mean)", "Comm_het/LB (sd)",
                     "Comm_hom/LB (mean)", "Comm_hom/LB (sd)",
                     "Comm_hom/k/LB (mean)", "Comm_hom/k/LB (sd)",
                     "k (mean)"});
  for (const Fig4Row& row : rows) {
    table.row()
        .cell(row.p)
        .cell(row.het.mean(), 4)
        .cell(row.het.stddev(), 4)
        .cell(row.hom.mean(), 3)
        .cell(row.hom.stddev(), 3)
        .cell(row.hom_k.mean(), 3)
        .cell(row.hom_k.stddev(), 3)
        .cell(row.k_used.mean(), 2)
        .done();
  }
  return table;
}

std::vector<CapacitySweepRow> capacity_sweep(
    const CapacitySweepConfig& config) {
  NLDL_REQUIRE(config.total_load >= 0.0, "total_load must be >= 0");

  const platform::Platform plat =
      platform::Platform::homogeneous(kSweepWorkers);
  const sim::Engine engine(plat, sim::EngineOptions{kSweepAlpha});
  const std::vector<double> amounts(
      kSweepWorkers, config.total_load / static_cast<double>(kSweepWorkers));
  const double covered =
      1.0 - dlt::remaining_fraction_homogeneous(kSweepWorkers, kSweepAlpha);

  // One grid point per master capacity; the engine replay is pure, so the
  // points can run on any number of threads (bit-identical results).
  util::Grid grid;
  grid.axis("capacity", {1.0, 4.0, 16.0, 64.0,
                         std::numeric_limits<double>::infinity()});
  util::SweepOptions options;
  options.threads = config.threads;
  const util::Sweep sweep(std::move(grid), options);
  return sweep.map<CapacitySweepRow>(
      [&](const util::SweepPoint& point, util::Rng&) {
        const double capacity = point.value("capacity");
        const sim::BoundedMultiportModel model(capacity);
        const sim::SimResult result = engine.run_single_round(amounts, model);
        CapacitySweepRow row;
        row.capacity = capacity;
        for (const sim::ChunkSpan& span : result.spans) {
          row.comm_phase_end = std::max(row.comm_phase_end, span.comm_end);
        }
        row.makespan = result.makespan;
        row.covered_fraction = covered;
        return row;
      });
}

util::Table capacity_sweep_table(const std::vector<CapacitySweepRow>& rows) {
  util::Table table({"master capacity", "comm phase ends", "round makespan",
                     "work covered"});
  for (const CapacitySweepRow& row : rows) {
    table.row()
        .cell(std::isfinite(row.capacity)
                  ? util::format_double(row.capacity, 0)
                  : std::string("inf (parallel links)"))
        .cell(row.comm_phase_end, 1)
        .cell(row.makespan, 1)
        .cell(row.covered_fraction, 6)
        .done();
  }
  return table;
}

}  // namespace nldl::core
