// Section 2 — "Non-linear workloads are not amenable to DLT".
//
// Regenerates the paper's central analysis: after one optimal DLT round on
// p processors, the fraction of an N^α workload still to be processed is
//   (W − W_partial)/W = 1 − 1/p^(α−1)  (homogeneous closed form),
// which tends to 1 as p grows. We print the closed form next to the solved
// allocations under both communication models, plus heterogeneous
// platforms where no closed form exists — showing that the sophisticated
// allocation problem of refs [31–35] optimizes a vanishing share of work.
//
// Every sub-experiment is a util::Sweep grid driven by bench::Harness:
// the whole bench runs serially and in parallel, self-checks bit-identity,
// and lands in BENCH_sec2_nonlinear.json.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>

#include "bench/harness.hpp"
#include "core/experiments.hpp"
#include "core/no_free_lunch.hpp"
#include "dlt/nonlinear_dlt.hpp"
#include "platform/speed_distributions.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"

using namespace nldl;

namespace {

const std::vector<double> kAlphas{1.25, 1.5, 2.0, 3.0};
const std::vector<double> kHomPs{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
const std::vector<platform::SpeedModel> kHetModels{
    platform::SpeedModel::kUniform, platform::SpeedModel::kLogNormal};
const std::vector<double> kHetPs{4, 16, 64, 256};
const std::vector<double> kMakespanPs{2, 8, 32, 128};

/// One heterogeneous platform evaluated at both alphas (the platform draw
/// is shared, as in the original serial loop).
struct HetPoint {
  core::NflPoint alpha2;
  core::NflPoint alpha3;
};

struct MakespanRow {
  std::size_t p = 0;
  double makespan = 0.0;
  double work_done = 0.0;
  double total_work = 0.0;
};

struct Sec2Results {
  std::vector<core::NflPoint> homogeneous;  ///< alpha-major, p fastest
  std::vector<HetPoint> heterogeneous;      ///< model-major, p fastest
  std::vector<MakespanRow> makespan;
  std::vector<core::CapacitySweepRow> capacity;
};

Sec2Results compute_all(std::size_t threads, double total_load,
                        std::uint64_t seed) {
  Sec2Results results;
  util::SweepOptions options;
  options.threads = threads;
  options.seed = seed;

  {
    util::Grid grid;
    grid.axis("alpha", kAlphas).axis("p", kHomPs);
    results.homogeneous =
        util::Sweep(std::move(grid), options).map<core::NflPoint>(
            [total_load](const util::SweepPoint& point, util::Rng&) {
              const auto p = static_cast<std::size_t>(point.value("p"));
              return core::remaining_fraction_on(
                  platform::Platform::homogeneous(p), point.value("alpha"),
                  total_load);
            });
  }
  {
    util::Grid grid;
    grid.axis("model", kHetModels.size()).axis("p", kHetPs);
    results.heterogeneous =
        util::Sweep(std::move(grid), options).map<HetPoint>(
            [total_load](const util::SweepPoint& point, util::Rng& rng) {
              const auto model = kHetModels[point.index_of("model")];
              const auto p = static_cast<std::size_t>(point.value("p"));
              const auto plat = platform::make_platform(model, p, rng);
              HetPoint out;
              out.alpha2 =
                  core::remaining_fraction_on(plat, 2.0, total_load);
              out.alpha3 =
                  core::remaining_fraction_on(plat, 3.0, total_load);
              return out;
            });
  }
  {
    util::Grid grid;
    grid.axis("p", kMakespanPs);
    results.makespan =
        util::Sweep(std::move(grid), options).map<MakespanRow>(
            [total_load](const util::SweepPoint& point, util::Rng&) {
              const auto p = static_cast<std::size_t>(point.value("p"));
              const auto plat = platform::Platform::homogeneous(p, 1.0);
              const auto alloc = dlt::nonlinear_parallel_single_round(
                  plat, total_load, 2.0);
              return MakespanRow{p, alloc.makespan, alloc.work_done,
                                 alloc.total_work};
            });
  }
  {
    core::CapacitySweepConfig config;
    config.total_load = total_load;
    config.threads = threads;
    results.capacity = core::capacity_sweep(config);
  }
  return results;
}

void emit_points(const Sec2Results& results, util::JsonWriter& json) {
  for (const auto& point : results.homogeneous) {
    json.begin_object();
    json.key("family").value("homogeneous_remaining_fraction");
    json.key("p").value(point.p);
    json.key("alpha").value(point.alpha);
    json.key("closed_form").value(point.closed_form);
    json.key("parallel_links").value(point.simulated_parallel);
    json.key("one_port").value(point.simulated_one_port);
    json.end_object();
  }
  for (std::size_t i = 0; i < results.heterogeneous.size(); ++i) {
    for (const core::NflPoint* point :
         {&results.heterogeneous[i].alpha2,
          &results.heterogeneous[i].alpha3}) {
      json.begin_object();
      json.key("family").value("heterogeneous_remaining_fraction");
      json.key("model").value(
          platform::to_string(kHetModels[i / kHetPs.size()]));
      json.key("p").value(point->p);
      json.key("alpha").value(point->alpha);
      json.key("parallel_links").value(point->simulated_parallel);
      json.key("one_port").value(point->simulated_one_port);
      json.key("homog_closed_form").value(point->closed_form);
      json.end_object();
    }
  }
  for (const auto& row : results.makespan) {
    json.begin_object();
    json.key("family").value("round_vs_total_makespan");
    json.key("p").value(row.p);
    json.key("makespan").value(row.makespan);
    json.key("work_done").value(row.work_done);
    json.key("total_work").value(row.total_work);
    json.end_object();
  }
  for (const auto& row : results.capacity) {
    json.begin_object();
    json.key("family").value("capacity_sweep");
    json.key("capacity").value(row.capacity);
    json.key("comm_phase_end").value(row.comm_phase_end);
    json.key("makespan").value(row.makespan);
    json.key("covered_fraction").value(row.covered_fraction);
    json.end_object();
  }
}

void print_tables(const Sec2Results& results, double total_load) {
  std::printf("=== Remaining work fraction after one DLT round "
              "(homogeneous, c = w = 1) ===\n");
  std::printf("paper: 1 - 1/p^(alpha-1) -> 1 as p grows\n\n");
  const std::size_t per_alpha = kHomPs.size();
  for (std::size_t a = 0; a < kAlphas.size(); ++a) {
    std::printf("alpha = %.2f\n", kAlphas[a]);
    const std::vector<core::NflPoint> slice(
        results.homogeneous.begin() + static_cast<long>(a * per_alpha),
        results.homogeneous.begin() +
            static_cast<long>((a + 1) * per_alpha));
    core::nfl_table(slice).print(std::cout);
    std::printf("\n");
  }

  std::printf("=== Same question on heterogeneous platforms "
              "(no closed form; solved numerically) ===\n\n");
  util::Table het({"model", "p", "alpha", "remaining (parallel)",
                   "remaining (one-port)", "homog. closed form"});
  for (std::size_t i = 0; i < results.heterogeneous.size(); ++i) {
    const auto model = kHetModels[i / kHetPs.size()];
    for (const core::NflPoint* point :
         {&results.heterogeneous[i].alpha2,
          &results.heterogeneous[i].alpha3}) {
      het.row()
          .cell(platform::to_string(model))
          .cell(point->p)
          .cell(point->alpha, 1)
          .cell(point->simulated_parallel, 6)
          .cell(point->simulated_one_port, 6)
          .cell(point->closed_form, 6)
          .done();
    }
  }
  het.print(std::cout);

  // The flip side of the same theorem: the DLT round's makespan is a
  // vanishing share of the time needed to finish the whole job.
  std::printf("\n=== Makespan of the DLT round vs total job (alpha = 2, "
              "homogeneous) ===\n\n");
  util::Table makespan({"p", "round makespan", "work done", "total work",
                        "done/total"});
  for (const MakespanRow& row : results.makespan) {
    makespan.row()
        .cell(row.p)
        .cell(row.makespan, 1)
        .cell(row.work_done, 1)
        .cell(row.total_work, 1)
        .cell(row.work_done / row.total_work, 6)
        .done();
  }
  makespan.print(std::cout);

  // The conclusion does not hinge on the communication model: even under
  // bounded-multiport masters (between parallel links and one-port), the
  // equal-split round covers the same vanishing work share — only the
  // round's *makespan* moves.
  std::printf("\n=== Model independence: round makespan under bounded "
              "master capacity (alpha = 2, p = 64, N = %.0f) ===\n\n",
              total_load);
  core::capacity_sweep_table(results.capacity).print(std::cout);
  std::printf("\n(the covered share is a property of the division, not of "
              "the network: no model buys a free lunch)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const double total_load = args.get_double("n", 10000.0);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  bench::Harness harness("sec2_nonlinear",
                         bench::harness_options_from_args(args));
  harness.config("n", total_load);
  harness.config("seed", static_cast<std::int64_t>(seed));

  const Sec2Results results = harness.run<Sec2Results>(
      [&](std::size_t threads) {
        return compute_all(threads, total_load, seed);
      },
      emit_points);

  print_tables(results, total_load);

  return harness.finish();
}
