// The Conclusion's proposal, demonstrated: adding task↔data affinity to a
// demand-driven MapReduce scheduler recovers part of the Comm_het saving
// without changing the programming model.
//
//   ./affinity_scheduler_demo [--n=240] [--block=12] [--p=6] [--k=8]
#include <cstdio>
#include <iostream>

#include "core/nldl.hpp"
#include "util/cli.hpp"

using namespace nldl;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto n = args.get_int("n", 240);
  const auto block = args.get_int("block", 12);
  const auto p = args.get_count("p", 6);
  const double k = args.get_double("k", 8.0);
  if (n % block != 0) {
    std::fprintf(stderr, "n must be divisible by block\n");
    return 1;
  }

  const auto plat = platform::Platform::two_class(p, 1.0, k);
  const auto speeds = plat.speeds();
  std::printf("=== Demand-driven MapReduce scheduling of the outer "
              "product, N = %lld, blocks %lldx%lld ===\n",
              static_cast<long long>(n), static_cast<long long>(block),
              static_cast<long long>(block));
  std::printf("platform: %zu workers, two-class speeds (1 vs %.0f)\n\n", p,
              k);

  const auto tasks = mapreduce::outer_product_tasks(n, block);
  const double no_cache = double(tasks.size()) * 2.0 * double(block);

  mapreduce::ClusterConfig config;
  config.speeds = speeds;
  config.bytes_per_block = double(block);

  const auto blind = mapreduce::run_cluster(tasks, config);
  auto aware_cfg = config;
  aware_cfg.affinity_aware = true;
  const auto aware = mapreduce::run_cluster(tasks, aware_cfg);

  const double lb = partition::comm_lower_bound(speeds, double(n));
  const auto het = core::evaluate_strategy(
      core::Strategy::kHeterogeneousBlocks, speeds, double(n));

  util::Table table({"scheduler", "elements shipped", "x lower bound",
                     "imbalance e"});
  table.row()
      .cell(std::string("no reuse (Comm_hom accounting)"))
      .cell(no_cache, 0)
      .cell(no_cache / lb, 3)
      .cell(blind.imbalance, 3)
      .done();
  table.row()
      .cell(std::string("demand-driven + caches"))
      .cell(blind.total_bytes, 0)
      .cell(blind.total_bytes / lb, 3)
      .cell(blind.imbalance, 3)
      .done();
  table.row()
      .cell(std::string("demand-driven + affinity"))
      .cell(aware.total_bytes, 0)
      .cell(aware.total_bytes / lb, 3)
      .cell(aware.imbalance, 3)
      .done();
  table.row()
      .cell(std::string("PERI-SUM rectangles (Comm_het)"))
      .cell(het.comm_volume, 0)
      .cell(het.ratio_to_lower_bound, 3)
      .cell(het.load_imbalance, 3)
      .done();
  table.print(std::cout);

  std::printf("\nper-worker bytes under the two schedulers:\n");
  for (std::size_t w = 0; w < p; ++w) {
    std::printf("  worker %zu (speed %4.0f): demand-driven %7.0f | "
                "affinity %7.0f\n",
                w + 1, speeds[w], blind.bytes_per_worker[w],
                aware.bytes_per_worker[w]);
  }
  std::printf("\nAffinity-aware pulls close part of the gap toward "
              "Comm_het while keeping MapReduce's\ndemand-driven fault "
              "tolerance — the paper's suggested middle road.\n");
  return 0;
}
