// Outer product on a simulated heterogeneous cluster, end to end:
// partition → ship → compute (multi-threaded) → verify → account.
//
//   ./outer_product_cluster [--n=480] [--k=16] [--seed=S]
//
// Reproduces the Section 4.1 story on real data: both distributions
// compute the same a·bᵀ, but the PERI-SUM rectangles ship several times
// fewer input elements than demand-driven square blocks as platform
// heterogeneity (k) grows.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/nldl.hpp"
#include "util/cli.hpp"

using namespace nldl;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto n = args.get_count("n", 480);
  const double k = args.get_double("k", 16.0);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  // Two-class platform: half slow (speed 1), half fast (speed k).
  const auto plat = platform::Platform::two_class(8, 1.0, k);
  const auto speeds = plat.speeds();
  std::printf("platform: 8 workers, speeds (1,..,1,%.0f,..,%.0f)\n", k, k);

  util::Rng rng(seed);
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  util::ThreadPool pool(2);

  // Heterogeneous Blocks: one PERI-SUM rectangle per worker.
  const auto part = partition::peri_sum_partition(speeds);
  const auto layout =
      partition::discretize(part, static_cast<long long>(n));
  if (!partition::verify_exact_cover(layout)) {
    std::fprintf(stderr, "layout does not tile the grid!\n");
    return 1;
  }
  const auto het =
      linalg::outer_product_partitioned(a, b, layout, speeds, &pool);

  // Homogeneous Blocks: demand-driven squares sized for the slowest
  // worker (rounded so the block divides n).
  const auto formula =
      partition::homogeneous_blocks_formula(speeds, double(n));
  auto block = std::max(1LL, static_cast<long long>(formula.block_dim));
  while (static_cast<long long>(n) % block != 0) --block;
  const auto hom =
      linalg::outer_product_blocked(a, b, block, speeds, &pool);

  // Verify both against the serial reference.
  const auto reference = linalg::outer_product_serial(a, b);
  std::printf("verification: het max|err| = %.2e, hom max|err| = %.2e\n\n",
              het.result.max_abs_diff(reference),
              hom.result.max_abs_diff(reference));

  util::Table table({"distribution", "elements shipped", "x lower bound",
                     "imbalance e"});
  const double lb = partition::comm_lower_bound(speeds, double(n));
  table.row()
      .cell(std::string("Comm_het (PERI-SUM rectangles)"))
      .cell(het.total_elements)
      .cell(double(het.total_elements) / lb, 3)
      .cell(het.imbalance, 4)
      .done();
  table.row()
      .cell(std::string("Comm_hom (demand-driven blocks)"))
      .cell(hom.total_elements)
      .cell(double(hom.total_elements) / lb, 3)
      .cell(hom.imbalance, 4)
      .done();
  table.print(std::cout);

  const double rho =
      double(hom.total_elements) / double(het.total_elements);
  std::printf("\nmeasured rho = %.2f  (paper bound (1+k)/(1+sqrt k) = "
              "%.2f, sqrt(k)-1 = %.2f)\n",
              rho, core::rho_two_class_bound(k), std::sqrt(k) - 1.0);
  return 0;
}
