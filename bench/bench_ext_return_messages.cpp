// Extension bench — divisible loads *with return messages* (refs [28–30]),
// the model dimension the paper's Section 1.2 explicitly set aside.
//
// Compares, across output ratios δ and platforms:
//   - the parallel-links equal-finish optimum (contention-free bound),
//   - one-port FIFO (returns in send order),
//   - one-port LIFO (returns in reverse order),
// and shows the classical facts: order matters, LIFO ≠ FIFO, and a fixed
// all-workers order can even lose to the best worker running solo. The
// (platform × δ) grid runs through util::Sweep under bench::Harness.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <numeric>

#include "bench/harness.hpp"
#include "dlt/return_messages.hpp"
#include "platform/speed_distributions.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"

using namespace nldl;

namespace {

const std::vector<double> kDeltas{0.0, 0.25, 1.0};

struct ReturnRow {
  double ideal = 0.0;
  double fifo = 0.0;
  double lifo = 0.0;
  double solo = 0.0;
};

std::vector<std::pair<std::string, platform::Platform>> build_platforms(
    std::uint64_t seed) {
  util::Rng rng(seed);
  return {
      {"4 equal (c=0.2)", platform::Platform::homogeneous(4, 0.2)},
      {"uniform p=6",
       platform::make_platform(platform::SpeedModel::kUniform, 6, rng)},
      {"2-class k=8 (p=4)", platform::Platform::two_class(4, 1.0, 8.0, 0.2)},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));
  const double load = args.get_double("load", 100.0);

  bench::Harness harness("ext_return_messages",
                         bench::harness_options_from_args(args));
  harness.config("load", load);
  harness.config("seed", static_cast<std::int64_t>(seed));

  std::printf("=== Extension: divisible loads with return messages "
              "(one-port star) ===\n");
  std::printf("output ratio delta = output size / input size; load = %.0f "
              "units\n\n", load);

  const auto platforms = build_platforms(seed);

  const auto rows = harness.run<std::vector<ReturnRow>>(
      [&](std::size_t threads) {
        util::Grid grid;
        grid.axis("platform", platforms.size()).axis("delta", kDeltas);
        util::SweepOptions options;
        options.threads = threads;
        options.seed = seed;
        return util::Sweep(std::move(grid), options).map<ReturnRow>(
            [&](const util::SweepPoint& point, util::Rng&) {
              const platform::Platform& plat =
                  platforms[point.index_of("platform")].second;
              const double delta = point.value("delta");
              std::vector<std::size_t> order(plat.size());
              std::iota(order.begin(), order.end(), std::size_t{0});
              ReturnRow row;
              row.ideal =
                  dlt::linear_parallel_with_return(plat, load, delta)
                      .makespan;
              row.fifo = dlt::one_port_fifo_with_return(plat, load, delta,
                                                        order)
                             .makespan;
              row.lifo = dlt::one_port_lifo_with_return(plat, load, delta,
                                                        order)
                             .makespan;
              row.solo = 1e300;
              for (std::size_t i = 0; i < plat.size(); ++i) {
                row.solo = std::min(
                    row.solo,
                    (plat.c(i) * (1.0 + delta) + plat.w(i)) * load);
              }
              return row;
            });
      },
      [&](const std::vector<ReturnRow>& result, util::JsonWriter& json) {
        for (std::size_t i = 0; i < result.size(); ++i) {
          json.begin_object();
          json.key("platform").value(platforms[i / kDeltas.size()].first);
          json.key("delta").value(kDeltas[i % kDeltas.size()]);
          json.key("parallel_links").value(result[i].ideal);
          json.key("fifo").value(result[i].fifo);
          json.key("lifo").value(result[i].lifo);
          json.key("best_solo").value(result[i].solo);
          json.end_object();
        }
      });

  util::Table table({"platform", "delta", "parallel-links", "FIFO",
                     "LIFO", "best solo", "LIFO/parallel"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    table.row()
        .cell(platforms[i / kDeltas.size()].first)
        .cell(kDeltas[i % kDeltas.size()], 2)
        .cell(rows[i].ideal, 2)
        .cell(rows[i].fifo, 2)
        .cell(rows[i].lifo, 2)
        .cell(rows[i].solo, 2)
        .cell(rows[i].lifo / rows[i].ideal, 3)
        .done();
  }
  table.print(std::cout);
  std::printf("\n(FIFO > LIFO on most instances; both serialize the bus. "
              "With large delta a fixed\n all-workers order can lose to "
              "the best solo worker — participation is not free,\n echoing "
              "ref [29]'s idle-processor optima.)\n");

  return harness.finish();
}
