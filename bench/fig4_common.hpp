// Shared driver for the Figure 4 reproductions (bench_fig4{a,b,c}),
// running the trial sweep through bench::Harness (which in turn drives
// core::run_fig4's util::Sweep at serial and parallel widths and
// self-checks bit-identity).
#pragma once

#include <cstdio>
#include <iostream>

#include "bench/harness.hpp"
#include "core/experiments.hpp"
#include "util/chart.hpp"
#include "util/cli.hpp"

namespace nldl::bench {

/// The deterministic "points" of one panel: one object per p.
inline void emit_fig4_points(const std::vector<core::Fig4Row>& rows,
                             util::JsonWriter& json) {
  for (const auto& row : rows) {
    json.begin_object();
    json.key("p").value(row.p);
    json.key("het_mean").value(row.het.mean());
    json.key("het_stddev").value(row.het.stddev());
    json.key("hom_mean").value(row.hom.mean());
    json.key("hom_stddev").value(row.hom.stddev());
    json.key("hom_k_mean").value(row.hom_k.mean());
    json.key("hom_k_stddev").value(row.hom_k.stddev());
    json.key("k_mean").value(row.k_used.mean());
    json.key("hom_imbalance_mean").value(row.hom_imbalance.mean());
    json.key("hom_imbalance_dropped").value(row.hom_imbalance_dropped);
    json.key("hom_idle_trials").value(row.hom_idle_trials);
    json.end_object();
  }
}

/// Run one Figure 4 panel: print the paper-style table, then record the
/// serial-vs-parallel runner comparison to BENCH_fig4<panel>.json.
///
/// Flags: --trials=N (default 100), --seed=S, --csv=path, --target=e
/// (imbalance target for Comm_hom/k, default 0.01 = the paper's 1 %),
/// plus the shared harness flags --threads=T (0 = hardware, default),
/// --reps=R, --warmup=W, --json=path (default BENCH_fig4<panel>.json).
inline int run_fig4_panel(const char* figure, const char* panel,
                          platform::SpeedModel model,
                          const char* expectation, int argc, char** argv) {
  const util::Args args(argc, argv);
  core::Fig4Config config;
  config.model = model;
  config.trials = args.get_count("trials", 100);
  config.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));
  config.strategy_options.imbalance_target = args.get_double("target", 0.01);

  Harness harness(std::string("fig4") + panel,
                  harness_options_from_args(args));
  harness.config("speed_model", platform::to_string(model));
  harness.config("trials", config.trials);
  harness.config("seed", static_cast<std::int64_t>(config.seed));
  harness.config("imbalance_target",
                 config.strategy_options.imbalance_target);

  std::printf("=== Figure %s: ratio of communication volume to the lower "
              "bound ===\n",
              figure);
  std::printf("speed model: %s | p in {10,20,40,60,80,100} | %zu trials "
              "per point | imbalance target %.2f%%\n",
              platform::to_string(model).c_str(), config.trials,
              100.0 * config.strategy_options.imbalance_target);
  std::printf("paper expectation: %s\n\n", expectation);

  // Serial reference run, then the pooled run; the harness requires the
  // two to emit the same points bit for bit (per-trial RNG sub-streams +
  // ordered reduction inside core::run_fig4's util::Sweep).
  const auto rows = harness.run<std::vector<core::Fig4Row>>(
      [&config](std::size_t threads) {
        core::Fig4Config run_config = config;
        run_config.threads = threads;
        return core::run_fig4(run_config);
      },
      emit_fig4_points);

  const auto table = core::fig4_table(rows);
  table.print(std::cout);

  // The figure itself, as in the paper: ratio-to-LB vs p.
  std::vector<double> ps;
  std::vector<double> het;
  std::vector<double> hom;
  std::vector<double> hom_k;
  for (const auto& row : rows) {
    ps.push_back(static_cast<double>(row.p));
    het.push_back(row.het.mean());
    hom.push_back(row.hom.mean());
    hom_k.push_back(row.hom_k.mean());
  }
  util::AsciiChart chart(60, 16);
  chart.set_y_label("ratio of communication amount to the lower bound");
  chart.set_x_label("number of processors");
  chart.add_series("Comm_het", 'o', ps, het);
  chart.add_series("Comm_hom", '+', ps, hom);
  chart.add_series("Comm_hom/k", '*', ps, hom_k);
  std::printf("\n%s", chart.render().c_str());

  const int exit_code = harness.finish();

  if (args.has("csv")) {
    const std::string path = args.get_string("csv", "");
    table.save_csv(path);
    std::printf("CSV written to %s\n", path.c_str());
  }
  return exit_code;
}

}  // namespace nldl::bench
