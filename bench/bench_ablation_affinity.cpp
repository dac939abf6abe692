// Ablation A1 — the Conclusion's proposal: "favoring among all available
// tasks those that share blocks with data already stored on a slave
// processor" in the demand-driven MapReduce scheduler.
//
// Compares plain demand-driven vs affinity-aware scheduling on the
// outer-product and matmul task graphs, across heterogeneity profiles and
// block granularities: bytes shipped, makespan, load imbalance. The
// (workload × platform) grid runs through util::Sweep under the
// bench::Harness self-check.
#include <cstdio>
#include <iostream>

#include "bench/harness.hpp"
#include "mapreduce/cluster_sim.hpp"
#include "mapreduce/matmul_job.hpp"
#include "mapreduce/outer_product_job.hpp"
#include "platform/speed_distributions.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"

using namespace nldl;

namespace {

struct Case {
  std::string name;
  std::vector<mapreduce::SimTask> tasks;
  double bytes_per_block;
  double no_cache_bytes;  ///< plain MapReduce accounting: no reuse at all
};

std::vector<Case> build_cases() {
  std::vector<Case> cases;
  {
    const long long n = 240;
    for (const long long block : {12LL, 24LL, 48LL}) {
      Case c;
      c.name = "outer-product N=240 b=" + std::to_string(block);
      c.tasks = mapreduce::outer_product_tasks(n, block);
      c.bytes_per_block = double(block);
      c.no_cache_bytes = double(c.tasks.size()) * 2.0 * double(block);
      cases.push_back(std::move(c));
    }
  }
  {
    const long long n = 64;
    for (const long long block : {8LL, 16LL}) {
      Case c;
      c.name = "matmul N=64 b=" + std::to_string(block);
      c.tasks = mapreduce::matmul_tasks(n, block);
      c.bytes_per_block = double(block) * double(block);
      c.no_cache_bytes =
          mapreduce::matmul_replication_volume(double(n), double(block));
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

/// The heterogeneity profiles; the lognormal one is drawn once, before
/// the sweep, so every workload sees the same machine.
std::vector<std::pair<std::string, std::vector<double>>> build_platforms(
    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<std::string, std::vector<double>>> platforms;
  platforms.emplace_back("4 equal", std::vector<double>(4, 1.0));
  platforms.emplace_back(
      "2-class k=8 (p=4)",
      platform::Platform::two_class(4, 1.0, 8.0).speeds());
  platforms.emplace_back(
      "lognormal p=8",
      platform::make_platform(platform::SpeedModel::kLogNormal, 8, rng)
          .speeds());
  return platforms;
}

struct AffinityRow {
  double blind_bytes = 0.0;
  double aware_bytes = 0.0;
  double blind_imbalance = 0.0;
  double aware_imbalance = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  bench::Harness harness("ablation_affinity",
                         bench::harness_options_from_args(args));
  harness.config("seed", static_cast<std::int64_t>(seed));

  std::printf("=== Ablation A1: affinity-aware demand-driven scheduling "
              "(paper Conclusion) ===\n\n");

  const auto cases = build_cases();
  const auto platforms = build_platforms(seed);

  const auto rows = harness.run<std::vector<AffinityRow>>(
      [&](std::size_t threads) {
        util::Grid grid;
        grid.axis("case", cases.size()).axis("platform", platforms.size());
        util::SweepOptions options;
        options.threads = threads;
        options.seed = seed;
        return util::Sweep(std::move(grid), options).map<AffinityRow>(
            [&](const util::SweepPoint& point, util::Rng&) {
              const Case& c = cases[point.index_of("case")];
              const auto& speeds =
                  platforms[point.index_of("platform")].second;
              mapreduce::ClusterConfig plain;
              plain.speeds = speeds;
              plain.bytes_per_block = c.bytes_per_block;
              const auto blind = mapreduce::run_cluster(c.tasks, plain);
              auto aware = plain;
              aware.affinity_aware = true;
              const auto smart = mapreduce::run_cluster(c.tasks, aware);
              return AffinityRow{blind.total_bytes, smart.total_bytes,
                                 blind.imbalance, smart.imbalance};
            });
      },
      [&](const std::vector<AffinityRow>& result, util::JsonWriter& json) {
        for (std::size_t i = 0; i < result.size(); ++i) {
          const Case& c = cases[i / platforms.size()];
          json.begin_object();
          json.key("workload").value(c.name);
          json.key("platform").value(platforms[i % platforms.size()].first);
          json.key("no_cache_bytes").value(c.no_cache_bytes);
          json.key("demand_driven_bytes").value(result[i].blind_bytes);
          json.key("affinity_bytes").value(result[i].aware_bytes);
          json.key("imbalance_demand_driven")
              .value(result[i].blind_imbalance);
          json.key("imbalance_affinity").value(result[i].aware_imbalance);
          json.end_object();
        }
      });

  util::Table table({"workload", "platform", "no-cache bytes",
                     "demand-driven", "affinity-aware", "saving",
                     "e (dd)", "e (aff)"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Case& c = cases[i / platforms.size()];
    table.row()
        .cell(c.name)
        .cell(platforms[i % platforms.size()].first)
        .cell(c.no_cache_bytes, 0)
        .cell(rows[i].blind_bytes, 0)
        .cell(rows[i].aware_bytes, 0)
        .cell(1.0 - rows[i].aware_bytes / rows[i].blind_bytes, 3)
        .cell(rows[i].blind_imbalance, 3)
        .cell(rows[i].aware_imbalance, 3)
        .done();
  }
  table.print(std::cout);
  std::printf("\n(no-cache = every task ships its own inputs, the plain "
              "MapReduce accounting used by Comm_hom;\n demand-driven "
              "already benefits from per-worker caches; affinity adds "
              "task selection on top)\n");

  return harness.finish();
}
