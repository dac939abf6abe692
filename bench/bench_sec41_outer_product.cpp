// Section 4.1 — outer-product data distribution.
//
// Regenerates:
//   (1) the closed formulas: Comm_hom = 2N·√(Σs/s₁), LB = 2N·Σ√x_i,
//       Comm_het <= 1 + (5/4)·LB — validated against the implementations;
//   (2) the ratio ρ = Comm_hom/Comm_het on the two-class platform of
//       Section 4.1.3 vs the paper's bounds (1+k)/(1+√k) and √k − 1;
//   (3) an executable end-to-end check: both strategies compute the same
//       outer product while shipping very different volumes.
//
// All three families run as util::Sweep grids under bench::Harness
// (bit-identity self-checked, BENCH_sec41_outer_product.json emitted).
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/harness.hpp"
#include "core/strategies.hpp"
#include "linalg/outer_product.hpp"
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
    kFormulaCases{
        {"4 equal", {1.0, 1.0, 1.0, 1.0}},
        {"1,2,3,4", {1.0, 2.0, 3.0, 4.0}},
        {"2-class k=16 (p=8)",
         {1.0, 1.0, 1.0, 1.0, 16.0, 16.0, 16.0, 16.0}},
    };
const std::vector<double> kRhoKs{1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0};

struct FormulaRow {
  double formula_volume = 0.0;
  double hom_volume = 0.0;
  double het_volume = 0.0;
  double het_bound = 0.0;  ///< N + (5/4)·LB
  double lower_bound = 0.0;
};

struct RhoRow {
  double k = 0.0;
  double rho = 0.0;
  double bound = 0.0;      ///< (1+k)/(1+√k)
  double weak_bound = 0.0; ///< √k − 1
  double hom_over_lb = 0.0;
  double het_over_lb = 0.0;
};

struct ExecutedRow {
  std::size_t total_elements = 0;
  double per_cell = 0.0;
  double imbalance = 0.0;
  double max_error = 0.0;
};

struct Sec41Results {
  std::vector<FormulaRow> formulas;  ///< one per kFormulaCases entry
  std::vector<RhoRow> rho;           ///< one per kRhoKs entry
  std::vector<ExecutedRow> executed; ///< [het, hom]
};

Sec41Results compute_all(std::size_t threads, std::uint64_t seed) {
  Sec41Results results;
  util::SweepOptions options;
  options.threads = threads;
  options.seed = seed;

  {
    util::Grid grid;
    grid.axis("case", kFormulaCases.size());
    results.formulas =
        util::Sweep(std::move(grid), options).map<FormulaRow>(
            [](const util::SweepPoint& point, util::Rng&) {
              const double n = 1000.0;
              const auto& speeds =
                  kFormulaCases[point.index_of("case")].second;
              const auto formula =
                  partition::homogeneous_blocks_formula(speeds, n);
              const auto hom = core::evaluate_strategy(
                  core::Strategy::kHomogeneousBlocks, speeds, n);
              const auto het = core::evaluate_strategy(
                  core::Strategy::kHeterogeneousBlocks, speeds, n);
              const double lb = partition::comm_lower_bound(speeds, n);
              return FormulaRow{formula.comm_volume, hom.comm_volume,
                                het.comm_volume, n + 1.25 * lb, lb};
            });
  }
  {
    util::Grid grid;
    grid.axis("k", kRhoKs);
    results.rho = util::Sweep(std::move(grid), options).map<RhoRow>(
        [](const util::SweepPoint& point, util::Rng&) {
          const double k = point.value("k");
          const auto plat = platform::Platform::two_class(16, 1.0, k);
          const auto speeds = plat.speeds();
          const auto hom = core::evaluate_strategy(
              core::Strategy::kHomogeneousBlocks, speeds, 1.0);
          const auto het = core::evaluate_strategy(
              core::Strategy::kHeterogeneousBlocks, speeds, 1.0);
          return RhoRow{k,
                        hom.comm_volume / het.comm_volume,
                        core::rho_two_class_bound(k),
                        std::max(0.0, std::sqrt(k) - 1.0),
                        hom.ratio_to_lower_bound,
                        het.ratio_to_lower_bound};
        });
  }
  {
    // Shared inputs drawn once so both strategies multiply the same
    // vectors; the two heavyweight executions are the grid points.
    util::Rng rng(seed);
    const std::size_t n = 240;
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (auto& v : a) v = rng.uniform(-1.0, 1.0);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    // Σ s = 64 so that the homogeneous block dimension divides N.
    const std::vector<double> speeds{1.0, 1.0, 31.0, 31.0};
    const auto reference = linalg::outer_product_serial(a, b);

    util::Grid grid;
    grid.axis("strategy", std::size_t{2});
    results.executed =
        util::Sweep(std::move(grid), options).map<ExecutedRow>(
            [&](const util::SweepPoint& point, util::Rng&) {
              ExecutedRow row;
              if (point.index_of("strategy") == 0) {
                const auto layout = partition::discretize(
                    partition::peri_sum_partition(speeds),
                    static_cast<long long>(n));
                const auto het = linalg::outer_product_partitioned(
                    a, b, layout, speeds);
                row.total_elements = het.total_elements;
                row.imbalance = het.imbalance;
                row.max_error = het.result.max_abs_diff(reference);
              } else {
                const auto formula = partition::homogeneous_blocks_formula(
                    speeds, double(n));
                const auto hom = linalg::outer_product_blocked(
                    a, b,
                    static_cast<long long>(std::llround(formula.block_dim)),
                    speeds);
                row.total_elements = hom.total_elements;
                row.imbalance = hom.imbalance;
                row.max_error = hom.result.max_abs_diff(reference);
              }
              row.per_cell = double(row.total_elements) /
                             (double(n) * double(n));
              return row;
            });
  }
  return results;
}

void emit_points(const Sec41Results& results, util::JsonWriter& json) {
  for (std::size_t i = 0; i < results.formulas.size(); ++i) {
    const FormulaRow& row = results.formulas[i];
    json.begin_object();
    json.key("family").value("formula_validation");
    json.key("platform").value(kFormulaCases[i].first);
    json.key("formula_volume").value(row.formula_volume);
    json.key("hom_volume").value(row.hom_volume);
    json.key("het_volume").value(row.het_volume);
    json.key("lower_bound").value(row.lower_bound);
    json.end_object();
  }
  for (const RhoRow& row : results.rho) {
    json.begin_object();
    json.key("family").value("rho_two_class");
    json.key("k").value(row.k);
    json.key("rho").value(row.rho);
    json.key("bound").value(row.bound);
    json.key("hom_over_lb").value(row.hom_over_lb);
    json.key("het_over_lb").value(row.het_over_lb);
    json.end_object();
  }
  for (std::size_t i = 0; i < results.executed.size(); ++i) {
    const ExecutedRow& row = results.executed[i];
    json.begin_object();
    json.key("family").value("executed_outer_product");
    json.key("strategy").value(i == 0 ? "het" : "hom");
    json.key("elements_shipped").value(row.total_elements);
    json.key("imbalance").value(row.imbalance);
    json.key("max_error").value(row.max_error);
    json.end_object();
  }
}

void print_tables(const Sec41Results& results) {
  std::printf("=== Formula validation (Section 4.1.1/4.1.2) ===\n\n");
  util::Table formulas({"platform", "Comm_hom formula", "Comm_hom measured",
                        "Comm_het measured", "1+(5/4)LB", "LB"});
  for (std::size_t i = 0; i < results.formulas.size(); ++i) {
    const FormulaRow& row = results.formulas[i];
    formulas.row()
        .cell(kFormulaCases[i].first)
        .cell(row.formula_volume, 1)
        .cell(row.hom_volume, 1)
        .cell(row.het_volume, 1)
        .cell(row.het_bound, 1)
        .cell(row.lower_bound, 1)
        .done();
  }
  formulas.print(std::cout);

  std::printf("\n=== rho = Comm_hom / Comm_het on two-class platforms "
              "(Section 4.1.3) ===\n");
  std::printf("paper: rho >= (1+k)/(1+sqrt(k)) >= sqrt(k)-1 "
              "(LB-relative analysis)\n\n");
  util::Table rho({"k", "rho measured", "(1+k)/(1+sqrt k)", "sqrt(k)-1",
                   "Comm_hom/LB", "Comm_het/LB"});
  for (const RhoRow& row : results.rho) {
    rho.row()
        .cell(row.k, 0)
        .cell(row.rho, 3)
        .cell(row.bound, 3)
        .cell(row.weak_bound, 3)
        .cell(row.hom_over_lb, 3)
        .cell(row.het_over_lb, 3)
        .done();
  }
  rho.print(std::cout);

  std::printf("\n=== Executed outer product, N = 240 (both strategies "
              "verified against the serial result) ===\n\n");
  util::Table executed({"strategy", "elements shipped", "per C-cell",
                        "imbalance e", "max |err|"});
  const char* names[] = {"Comm_het (PERI-SUM)", "Comm_hom (blocks)"};
  for (std::size_t i = 0; i < results.executed.size(); ++i) {
    const ExecutedRow& row = results.executed[i];
    executed.row()
        .cell(std::string(names[i]))
        .cell(row.total_elements)
        .cell(row.per_cell, 5)
        .cell(row.imbalance, 4)
        .cell(row.max_error, 2)
        .done();
  }
  executed.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  bench::Harness harness("sec41_outer_product",
                         bench::harness_options_from_args(args));
  harness.config("seed", static_cast<std::int64_t>(seed));
  harness.config("n_executed", std::size_t{240});

  const Sec41Results results = harness.run<Sec41Results>(
      [&](std::size_t threads) { return compute_all(threads, seed); },
      emit_points);

  print_tables(results);

  return harness.finish();
}
