// Extension bench — multi-installment distribution (paper Section 1.2's
// "multiple rounds: the communications will be shorter and pipelined").
//
// Sweeps the round count on one-port stars with varying communication/
// computation ratios and shows the pipelining gain plus the best
// (rounds, growth-ratio) combination found by the auto-tuner. The
// (platform × rounds) grid and the per-platform auto-tune both run
// through util::Sweep under the bench::Harness self-check.
#include <cstdio>
#include <iostream>

#include "bench/harness.hpp"
#include "dlt/multi_round.hpp"
#include "platform/speed_distributions.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"

using namespace nldl;

namespace {

const std::vector<double> kRounds{1, 2, 4, 8, 16};

struct Case {
  std::string name;
  platform::Platform plat;
};

std::vector<Case> build_cases(std::uint64_t seed) {
  util::Rng rng(seed);
  return {
      {"4 equal, comm-light", platform::Platform::homogeneous(4, 0.1)},
      {"4 equal, balanced", platform::Platform::homogeneous(4, 1.0)},
      {"4 equal, comm-heavy", platform::Platform::homogeneous(4, 3.0)},
      {"uniform p=8",
       platform::make_platform(platform::SpeedModel::kUniform, 8, rng)},
  };
}

struct BestRow {
  std::size_t rounds = 0;
  double makespan = 0.0;
};

struct MultiRoundResults {
  std::vector<double> makespans;  ///< case-major × kRounds
  std::vector<BestRow> best;      ///< one per case
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const double load = args.get_double("load", 100.0);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  bench::Harness harness("ext_multiround",
                         bench::harness_options_from_args(args));
  harness.config("load", load);
  harness.config("seed", static_cast<std::int64_t>(seed));

  std::printf("=== Extension: multi-round (multi-installment) one-port "
              "DLT ===\n");
  std::printf("load = %.0f units; makespans simulated with pipelined "
              "receive/compute\n\n", load);

  const auto cases = build_cases(seed);

  const MultiRoundResults results = harness.run<MultiRoundResults>(
      [&](std::size_t threads) {
        MultiRoundResults out;
        util::SweepOptions options;
        options.threads = threads;
        options.seed = seed;
        {
          util::Grid grid;
          grid.axis("case", cases.size()).axis("rounds", kRounds);
          out.makespans =
              util::Sweep(std::move(grid), options).map<double>(
                  [&](const util::SweepPoint& point, util::Rng&) {
                    const Case& c = cases[point.index_of("case")];
                    return dlt::uniform_multi_round(
                               c.plat, load,
                               static_cast<std::size_t>(
                                   point.value("rounds")))
                        .simulated_makespan;
                  });
        }
        {
          util::Grid grid;
          grid.axis("case", cases.size());
          out.best = util::Sweep(std::move(grid), options).map<BestRow>(
              [&](const util::SweepPoint& point, util::Rng&) {
                const Case& c = cases[point.index_of("case")];
                const auto best = dlt::best_multi_round(c.plat, load);
                return BestRow{best.rounds, best.simulated_makespan};
              });
        }
        return out;
      },
      [&](const MultiRoundResults& result, util::JsonWriter& json) {
        for (std::size_t ci = 0; ci < cases.size(); ++ci) {
          for (std::size_t ri = 0; ri < kRounds.size(); ++ri) {
            json.begin_object();
            json.key("family").value("round_sweep");
            json.key("platform").value(cases[ci].name);
            json.key("rounds").value(
                static_cast<std::size_t>(kRounds[ri]));
            json.key("makespan").value(
                result.makespans[ci * kRounds.size() + ri]);
            json.end_object();
          }
          json.begin_object();
          json.key("family").value("auto_tuned");
          json.key("platform").value(cases[ci].name);
          json.key("best_rounds").value(result.best[ci].rounds);
          json.key("best_makespan").value(result.best[ci].makespan);
          json.end_object();
        }
      });

  util::Table table({"platform", "c/w ratio", "R=1", "R=2", "R=4", "R=8",
                     "R=16", "best (R, makespan)"});
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    auto row = table.row();
    row.cell(cases[ci].name);
    row.cell(cases[ci].plat.c(0) / cases[ci].plat.w(0), 2);
    for (std::size_t ri = 0; ri < kRounds.size(); ++ri) {
      row.cell(results.makespans[ci * kRounds.size() + ri], 2);
    }
    row.cell("R=" + std::to_string(results.best[ci].rounds) + ", " +
             util::format_double(results.best[ci].makespan, 2));
    row.done();
  }
  table.print(std::cout);
  std::printf("\n(pipelining hides the serialized send ramp-up behind "
              "computation, so the gain shows\n where computation "
              "dominates; a bus-bound platform (c >= w) stays pinned at "
              "~c*N no matter\n how many rounds. best_multi_round scans "
              "uniform and geometric installment shapes.)\n");

  return harness.finish();
}
