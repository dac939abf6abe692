// Ablation A2 — PERI-SUM design choices.
//
// The paper relies on the column-based partitioning algorithm of ref [41]
// with a DP-chosen column structure. This ablation quantifies how much the
// DP matters against simpler structures:
//   - a single column (1-D slicing, the naive heterogeneous layout),
//   - a fixed √p-column grid with balanced membership,
//   - the DP optimum,
// and against the PERI-MAX objective, over the paper's speed models.
//
// The (model × p × trial) grid runs through util::Sweep — each trial on
// its own pre-split RNG sub-stream, Welford accumulators fed in trial
// order — under the bench::Harness serial/parallel self-check.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/harness.hpp"
#include "partition/lower_bound.hpp"
#include "partition/peri_max.hpp"
#include "partition/peri_sum.hpp"
#include "partition/recursive_bisection.hpp"
#include "platform/speed_distributions.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"

using namespace nldl;

namespace {

const std::vector<platform::SpeedModel> kModels{
    platform::SpeedModel::kUniform, platform::SpeedModel::kLogNormal};
const std::vector<double> kPs{10, 40, 100};

std::vector<std::size_t> balanced_columns(std::size_t p,
                                          std::size_t columns) {
  std::vector<std::size_t> sizes(columns, p / columns);
  for (std::size_t i = 0; i < p % columns; ++i) ++sizes[i];
  return sizes;
}

/// Ratios to the lower bound for one random platform.
struct TrialRatios {
  double one_column = 0.0;
  double grid_columns = 0.0;
  double dp = 0.0;
  double peri_max = 0.0;
  double bisection = 0.0;
};

struct CellStats {
  util::RunningStats one_column;
  util::RunningStats grid_columns;
  util::RunningStats dp;
  util::RunningStats peri_max;
  util::RunningStats bisection;
};

TrialRatios evaluate_trial(platform::SpeedModel model, std::size_t p,
                           util::Rng rng) {
  const auto speeds = platform::make_platform(model, p, rng).speeds();
  const double lb = partition::comm_lower_bound_unit(speeds);
  TrialRatios ratios;
  ratios.one_column =
      partition::column_partition_with_sizes(speeds, {p})
          .total_half_perimeter /
      lb;
  const auto columns = static_cast<std::size_t>(
      std::max(1.0, std::round(std::sqrt(double(p)))));
  ratios.grid_columns = partition::column_partition_with_sizes(
                            speeds, balanced_columns(p, columns))
                            .total_half_perimeter /
                        lb;
  ratios.dp =
      partition::peri_sum_partition(speeds).total_half_perimeter / lb;
  ratios.peri_max =
      partition::peri_max_partition(speeds).total_half_perimeter / lb;
  ratios.bisection =
      partition::recursive_bisection_partition(speeds)
          .total_half_perimeter /
      lb;
  return ratios;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));
  const auto trials = args.get_count("trials", 50);

  bench::Harness harness("ablation_partition",
                         bench::harness_options_from_args(args));
  harness.config("seed", static_cast<std::int64_t>(seed));
  harness.config("trials", trials);

  std::printf("=== Ablation A2: PERI-SUM column structure (ratios to the "
              "lower bound, %zu trials) ===\n\n",
              trials);

  const auto cells = harness.run<std::vector<CellStats>>(
      [&](std::size_t threads) {
        util::Grid grid;
        grid.axis("model", kModels.size())
            .axis("p", kPs)
            .axis("trial", trials);
        util::SweepOptions options;
        options.threads = threads;
        options.seed = seed;
        const util::Sweep sweep(std::move(grid), options);
        // Strictly ordered reduction into one accumulator cell per
        // (model, p): trial order is flat-index order by construction.
        return sweep.run<TrialRatios, std::vector<CellStats>>(
            [](const util::SweepPoint& point, util::Rng& rng) {
              return evaluate_trial(kModels[point.index_of("model")],
                                    static_cast<std::size_t>(
                                        point.value("p")),
                                    rng);
            },
            std::vector<CellStats>(kModels.size() * kPs.size()),
            [trials](std::vector<CellStats>& acc, const TrialRatios& r,
                     const util::SweepPoint& point) {
              CellStats& cell = acc[point.index() / trials];
              cell.one_column.push(r.one_column);
              cell.grid_columns.push(r.grid_columns);
              cell.dp.push(r.dp);
              cell.peri_max.push(r.peri_max);
              cell.bisection.push(r.bisection);
            });
      },
      [](const std::vector<CellStats>& result, util::JsonWriter& json) {
        for (std::size_t i = 0; i < result.size(); ++i) {
          json.begin_object();
          json.key("model").value(
              platform::to_string(kModels[i / kPs.size()]));
          json.key("p").value(static_cast<std::size_t>(kPs[i % kPs.size()]));
          json.key("one_column_mean").value(result[i].one_column.mean());
          json.key("grid_columns_mean").value(result[i].grid_columns.mean());
          json.key("dp_mean").value(result[i].dp.mean());
          json.key("dp_stddev").value(result[i].dp.stddev());
          json.key("peri_max_mean").value(result[i].peri_max.mean());
          json.key("bisection_mean").value(result[i].bisection.mean());
          json.end_object();
        }
      });

  util::Table table({"model", "p", "1 column", "sqrt(p) columns",
                     "DP (PERI-SUM)", "PERI-MAX (sum objective)",
                     "recursive bisection"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    table.row()
        .cell(platform::to_string(kModels[i / kPs.size()]))
        .cell(static_cast<std::size_t>(kPs[i % kPs.size()]))
        .cell(cells[i].one_column.mean(), 4)
        .cell(cells[i].grid_columns.mean(), 4)
        .cell(cells[i].dp.mean(), 4)
        .cell(cells[i].peri_max.mean(), 4)
        .cell(cells[i].bisection.mean(), 4)
        .done();
  }
  table.print(std::cout);
  std::printf("\n(1 column = 1-D slicing; the DP buys its biggest gains "
              "under heavy-tailed speeds)\n");

  return harness.finish();
}
