// Section 4.2 — matrix multiplication (3-D data distribution).
//
// Regenerates:
//   (1) the claim that the outer-product-based MM algorithm's comm volume
//       equals N × Σ(half-perimeters) — so the Section 4.1 strategy ratio
//       carries over verbatim to matmul (executed + analytic);
//   (2) strategy comparison at scale N = 4096 (analytic volumes);
//   (3) block-cyclic virtualization: volume depends on the grid shape,
//       not the block size;
//   (4) the MapReduce replication overhead of the introduction, measured
//       through the engine counters on a small instance and via the
//       formula at scale.
//
// Every family is a util::Sweep grid under bench::Harness.
#include <cstdio>
#include <iostream>

#include "bench/harness.hpp"
#include "core/strategies.hpp"
#include "linalg/block_cyclic.hpp"
#include "linalg/matmul.hpp"
#include "mapreduce/matmul_job.hpp"
#include "partition/layout.hpp"
#include "partition/lower_bound.hpp"
#include "platform/platform.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"

using namespace nldl;

namespace {

const std::vector<std::pair<std::string, std::vector<double>>>
    kExecutedCases{
        {"4 equal", {1.0, 1.0, 1.0, 1.0}},
        {"1,2,3,4", {1.0, 2.0, 3.0, 4.0}},
        {"2-class k=9", {1.0, 1.0, 9.0, 9.0}},
    };
const std::vector<double> kCyclicNs{256, 1024};
const std::vector<std::pair<std::size_t, std::size_t>> kCyclicGrids{{4, 4},
                                                                    {2, 8}};
const std::vector<double> kCyclicBlocks{1, 8, 64};
const std::vector<double> kSmallBlocks{4, 8, 16};
const std::vector<double> kScaleNs{1024, 4096, 16384};
const std::vector<double> kScaleBlocks{32, 256};

struct ExecutedRow {
  std::size_t total_elements = 0;
  double analytic_volume = 0.0;
  double imbalance = 0.0;
  double max_error = 0.0;
};

struct ScaleRow {
  double hom = 0.0;
  double hom_k = 0.0;
  double het = 0.0;
  double lower_bound = 0.0;
  double het_over_lb = 0.0;
  double hom_k_over_lb = 0.0;
};

struct CyclicRow {
  double n = 0.0;
  std::size_t grid_index = 0;
  std::vector<double> volume_per_block;  ///< one per kCyclicBlocks
  double closed_form = 0.0;
};

struct ReplicationRow {
  std::size_t block = 0;
  std::size_t map_tasks = 0;
  double volume = 0.0;
  std::size_t shuffle_records = 0;
  double max_error = 0.0;
};

struct Sec42Results {
  std::vector<ExecutedRow> executed;
  std::vector<ScaleRow> at_scale;
  std::vector<CyclicRow> cyclic;
  std::vector<ReplicationRow> replication;
  std::vector<double> replication_at_scale;  ///< volumes, n-major
};

Sec42Results compute_all(std::size_t threads, std::uint64_t seed) {
  Sec42Results results;
  util::SweepOptions options;
  options.threads = threads;
  options.seed = seed;

  {
    // Shared 96×96 inputs; each speed case is one grid point.
    util::Rng rng(seed);
    const std::size_t n = 96;
    const auto a = linalg::Matrix::random(n, n, rng);
    const auto b = linalg::Matrix::random(n, n, rng);
    const auto reference = linalg::multiply_naive(a, b);

    util::Grid grid;
    grid.axis("case", kExecutedCases.size());
    results.executed =
        util::Sweep(std::move(grid), options).map<ExecutedRow>(
            [&](const util::SweepPoint& point, util::Rng&) {
              const auto& speeds =
                  kExecutedCases[point.index_of("case")].second;
              const auto layout = partition::discretize(
                  partition::peri_sum_partition(speeds),
                  static_cast<long long>(n));
              const auto dist =
                  linalg::matmul_outer_product(a, b, layout, speeds, 8);
              return ExecutedRow{
                  static_cast<std::size_t>(dist.total_elements),
                  static_cast<double>(linalg::matmul_comm_volume(layout)),
                  dist.imbalance, dist.result.max_abs_diff(reference)};
            });
  }
  {
    util::Grid grid;
    grid.axis("case", std::size_t{2});
    results.at_scale =
        util::Sweep(std::move(grid), options).map<ScaleRow>(
            [](const util::SweepPoint& point, util::Rng&) {
              const double n = 4096.0;
              const std::vector<double> speeds =
                  point.index_of("case") == 0
                      ? std::vector<double>(16, 1.0)
                      : platform::Platform::two_class(16, 1.0, 16.0)
                            .speeds();
              const auto evals = core::evaluate_all_strategies(speeds, n);
              const double lb =
                  partition::comm_lower_bound(speeds, n) * n;
              // Outer-product volumes × N steps = matmul volumes.
              return ScaleRow{evals[0].comm_volume * n,
                              evals[1].comm_volume * n,
                              evals[2].comm_volume * n,
                              lb,
                              evals[2].ratio_to_lower_bound,
                              evals[1].ratio_to_lower_bound};
            });
  }
  {
    util::Grid grid;
    grid.axis("n", kCyclicNs).axis("grid", kCyclicGrids.size());
    results.cyclic =
        util::Sweep(std::move(grid), options).map<CyclicRow>(
            [](const util::SweepPoint& point, util::Rng&) {
              CyclicRow row;
              row.n = point.value("n");
              row.grid_index = point.index_of("grid");
              const auto [pr, pc] = kCyclicGrids[row.grid_index];
              const auto n = static_cast<std::size_t>(row.n);
              for (const double block : kCyclicBlocks) {
                row.volume_per_block.push_back(static_cast<double>(
                    linalg::block_cyclic_matmul_comm(
                        linalg::make_block_cyclic(
                            n, static_cast<std::size_t>(block), pr, pc))));
              }
              row.closed_form = static_cast<double>(
                  linalg::block_cyclic_matmul_comm_closed_form(
                      linalg::make_block_cyclic(n, 1, pr, pc)));
              return row;
            });
  }
  {
    // Engine-measured small instance with shared 32×32 inputs.
    util::Rng rng(seed + 1);
    const std::size_t n = 32;
    const auto a = linalg::Matrix::random(n, n, rng);
    const auto b = linalg::Matrix::random(n, n, rng);
    const auto reference = linalg::multiply_naive(a, b);

    util::Grid grid;
    grid.axis("block", kSmallBlocks);
    results.replication =
        util::Sweep(std::move(grid), options).map<ReplicationRow>(
            [&](const util::SweepPoint& point, util::Rng&) {
              const auto block =
                  static_cast<std::size_t>(point.value("block"));
              mapreduce::JobConfig config;
              mapreduce::Counters counters;
              const auto result = mapreduce::matmul_mapreduce(
                  a, b, block, config, &counters);
              return ReplicationRow{
                  block, counters.map_tasks,
                  mapreduce::matmul_replication_volume(double(n),
                                                       double(block)),
                  counters.map_output_records,
                  result.max_abs_diff(reference)};
            });
  }
  {
    util::Grid grid;
    grid.axis("n", kScaleNs).axis("block", kScaleBlocks);
    results.replication_at_scale =
        util::Sweep(std::move(grid), options).map<double>(
            [](const util::SweepPoint& point, util::Rng&) {
              return mapreduce::matmul_replication_volume(
                  point.value("n"), point.value("block"));
            });
  }
  return results;
}

void emit_points(const Sec42Results& results, util::JsonWriter& json) {
  for (std::size_t i = 0; i < results.executed.size(); ++i) {
    const ExecutedRow& row = results.executed[i];
    json.begin_object();
    json.key("family").value("executed_matmul");
    json.key("platform").value(kExecutedCases[i].first);
    json.key("elements_shipped").value(row.total_elements);
    json.key("analytic_volume").value(row.analytic_volume);
    json.key("imbalance").value(row.imbalance);
    json.key("max_error").value(row.max_error);
    json.end_object();
  }
  for (std::size_t i = 0; i < results.at_scale.size(); ++i) {
    const ScaleRow& row = results.at_scale[i];
    json.begin_object();
    json.key("family").value("strategy_at_scale");
    json.key("case").value(i);
    json.key("hom").value(row.hom);
    json.key("hom_k").value(row.hom_k);
    json.key("het").value(row.het);
    json.key("lower_bound").value(row.lower_bound);
    json.end_object();
  }
  for (const CyclicRow& row : results.cyclic) {
    json.begin_object();
    json.key("family").value("block_cyclic");
    json.key("n").value(row.n);
    json.key("grid").value(row.grid_index);
    json.key("volumes").begin_array();
    for (const double volume : row.volume_per_block) json.value(volume);
    json.end_array();
    json.key("closed_form").value(row.closed_form);
    json.end_object();
  }
  for (const ReplicationRow& row : results.replication) {
    json.begin_object();
    json.key("family").value("mapreduce_replication");
    json.key("block").value(row.block);
    json.key("map_tasks").value(row.map_tasks);
    json.key("volume").value(row.volume);
    json.key("shuffle_records").value(row.shuffle_records);
    json.key("max_error").value(row.max_error);
    json.end_object();
  }
}

void print_tables(const Sec42Results& results) {
  std::printf("=== Executed outer-product matmul (SUMMA) on a PERI-SUM "
              "layout, N = 96 ===\n\n");
  util::Table executed({"speeds", "elements shipped", "N*sum(h+w)",
                        "imbalance e", "max |err|"});
  for (std::size_t i = 0; i < results.executed.size(); ++i) {
    const ExecutedRow& row = results.executed[i];
    executed.row()
        .cell(kExecutedCases[i].first)
        .cell(row.total_elements)
        .cell(row.analytic_volume)
        .cell(row.imbalance, 4)
        .cell(row.max_error, 2)
        .done();
  }
  executed.print(std::cout);
  std::printf("\n(elements shipped == N x sum of half-perimeters: the "
              "Section 4.1 ratio carries over)\n");

  std::printf("\n=== Strategy comparison for N = 4096 matmul (analytic "
              "volumes, in elements of A+B) ===\n\n");
  util::Table scale({"platform", "Comm_hom", "Comm_hom/k", "Comm_het",
                     "lower bound", "het/LB", "hom_k/LB"});
  const char* case_names[] = {"16 equal", "2-class k=16 (p=16)"};
  for (std::size_t i = 0; i < results.at_scale.size(); ++i) {
    const ScaleRow& row = results.at_scale[i];
    scale.row()
        .cell(std::string(case_names[i]))
        .cell(row.hom, 0)
        .cell(row.hom_k, 0)
        .cell(row.het, 0)
        .cell(row.lower_bound, 0)
        .cell(row.het_over_lb, 4)
        .cell(row.hom_k_over_lb, 3)
        .done();
  }
  scale.print(std::cout);

  // Section 4.2: "a level of virtualization is added ... blocks are
  // scattered in a cyclic fashion" — and the communication volume is
  // unchanged by the block size, depending only on the grid shape.
  std::printf("\n=== Block-cyclic virtualization: volume depends on the "
              "grid, not the block size ===\n\n");
  util::Table cyclic({"N", "grid", "b=1", "b=8", "b=64", "closed form "
                      "N^2(pr+pc)"});
  for (const CyclicRow& row : results.cyclic) {
    const auto [pr, pc] = kCyclicGrids[row.grid_index];
    auto out = cyclic.row();
    out.cell(static_cast<std::size_t>(row.n));
    out.cell(std::to_string(pr) + "x" + std::to_string(pc));
    for (const double volume : row.volume_per_block) out.cell(volume);
    out.cell(row.closed_form);
    out.done();
  }
  cyclic.print(std::cout);

  std::printf("\n=== MapReduce matmul: input replication overhead "
              "(introduction / Section 1.1) ===\n");
  std::printf("paper: the N^2 input is expanded ~N/b-fold; blocked map "
              "tasks ship 2N^3/b elements\n\n");
  const double small_n = 32.0;
  util::Table replication({"N", "b", "map tasks", "input elems (2N^3/b)",
                           "replication xN^2", "shuffle records",
                           "max |err|"});
  for (const ReplicationRow& row : results.replication) {
    replication.row()
        .cell(static_cast<std::size_t>(small_n))
        .cell(row.block)
        .cell(row.map_tasks)
        .cell(row.volume, 0)
        .cell(row.volume / (2.0 * small_n * small_n), 1)
        .cell(row.shuffle_records)
        .cell(row.max_error, 2)
        .done();
  }
  replication.print(std::cout);

  std::printf("\nformula at scale:\n\n");
  util::Table at_scale({"N", "b", "input elems shipped",
                        "replication xN^2"});
  for (std::size_t i = 0; i < results.replication_at_scale.size(); ++i) {
    const double big_n = kScaleNs[i / kScaleBlocks.size()];
    const double block = kScaleBlocks[i % kScaleBlocks.size()];
    const double volume = results.replication_at_scale[i];
    at_scale.row()
        .cell(big_n, 0)
        .cell(block, 0)
        .cell(volume, 0)
        .cell(volume / (2.0 * big_n * big_n), 1)
        .done();
  }
  at_scale.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  bench::Harness harness("sec42_matmul",
                         bench::harness_options_from_args(args));
  harness.config("seed", static_cast<std::int64_t>(seed));

  const Sec42Results results = harness.run<Sec42Results>(
      [&](std::size_t threads) { return compute_all(threads, seed); },
      emit_points);

  print_tables(results);

  return harness.finish();
}
