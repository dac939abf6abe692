// Extension bench — stragglers and speculative re-execution, the MapReduce
// resilience mechanism the paper's Section 1.1 credits ("detection of
// nodes that perform poorly in order to re-assign tasks").
//
// Sweeps the slowdown factor of one degraded worker and reports makespan
// without/with backup tasks, plus the byte overhead the backups cost. The
// (workload × slowdown) grid runs through util::Sweep under
// bench::Harness.
#include <cstdio>
#include <iostream>

#include "bench/harness.hpp"
#include "mapreduce/matmul_job.hpp"
#include "mapreduce/outer_product_job.hpp"
#include "mapreduce/speculation.hpp"
#include "util/cli.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"

using namespace nldl;

namespace {

const std::vector<double> kSlowdowns{1.0, 2.0, 5.0, 10.0, 50.0};

struct Workload {
  std::string name;
  std::vector<mapreduce::SimTask> tasks;
  double bytes_per_block;
  std::size_t p;
};

struct SpecRow {
  double plain_makespan = 0.0;
  double spec_makespan = 0.0;
  double backups = 0.0;
  double backups_won = 0.0;
  double extra_bytes = 0.0;
};

std::vector<Workload> build_workloads() {
  std::vector<Workload> workloads;
  workloads.push_back({"outer product N=240 b=24",
                       mapreduce::outer_product_tasks(240, 24), 24.0, 4});
  workloads.push_back(
      {"matmul N=64 b=16", mapreduce::matmul_tasks(64, 16), 256.0, 4});
  return workloads;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);

  bench::Harness harness("ext_speculation",
                         bench::harness_options_from_args(args));

  std::printf("=== Extension: straggler injection + speculative "
              "re-execution (Hadoop-style backup tasks) ===\n\n");

  const auto workloads = build_workloads();

  const auto rows = harness.run<std::vector<SpecRow>>(
      [&](std::size_t threads) {
        util::Grid grid;
        grid.axis("workload", workloads.size())
            .axis("slowdown", kSlowdowns);
        util::SweepOptions options;
        options.threads = threads;
        return util::Sweep(std::move(grid), options).map<SpecRow>(
            [&](const util::SweepPoint& point, util::Rng&) {
              const Workload& w =
                  workloads[point.index_of("workload")];
              mapreduce::StragglerConfig config;
              config.speeds.assign(w.p, 1.0);
              config.slowdown.assign(w.p, 1.0);
              config.slowdown.back() = point.value("slowdown");
              config.bytes_per_block = w.bytes_per_block;

              const auto plain = run_with_stragglers(w.tasks, config);
              auto spec_config = config;
              spec_config.speculative_execution = true;
              const auto spec = run_with_stragglers(w.tasks, spec_config);
              return SpecRow{plain.makespan, spec.makespan,
                             static_cast<double>(spec.backup_launches),
                             static_cast<double>(spec.backups_won),
                             spec.total_bytes - plain.total_bytes};
            });
      },
      [&](const std::vector<SpecRow>& result, util::JsonWriter& json) {
        for (std::size_t i = 0; i < result.size(); ++i) {
          json.begin_object();
          json.key("workload")
              .value(workloads[i / kSlowdowns.size()].name);
          json.key("slowdown").value(kSlowdowns[i % kSlowdowns.size()]);
          json.key("makespan_plain").value(result[i].plain_makespan);
          json.key("makespan_speculative").value(result[i].spec_makespan);
          json.key("backup_launches").value(result[i].backups);
          json.key("backups_won").value(result[i].backups_won);
          json.key("extra_bytes").value(result[i].extra_bytes);
          json.end_object();
        }
      });

  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    const Workload& w = workloads[wi];
    std::printf("workload: %s (%zu tasks, %zu workers, worker %zu "
                "degraded)\n\n",
                w.name.c_str(), w.tasks.size(), w.p, w.p);
    util::Table table({"slowdown", "makespan (no spec)", "makespan (spec)",
                       "speedup", "backups", "backups won",
                       "extra bytes"});
    for (std::size_t si = 0; si < kSlowdowns.size(); ++si) {
      const SpecRow& row = rows[wi * kSlowdowns.size() + si];
      table.row()
          .cell(kSlowdowns[si], 0)
          .cell(row.plain_makespan, 2)
          .cell(row.spec_makespan, 2)
          .cell(row.plain_makespan / row.spec_makespan, 2)
          .cell(static_cast<std::size_t>(row.backups))
          .cell(static_cast<std::size_t>(row.backups_won))
          .cell(row.extra_bytes, 0)
          .done();
    }
    table.print(std::cout);
    std::printf("\n");
  }
  std::printf("(speculation buys back most of the straggler tail for a "
              "modest duplicate-fetch cost —\n the mechanism that lets "
              "MapReduce tolerate the heterogeneity the paper studies)\n");

  return harness.finish();
}
