// The "no free lunch" theorem, visualized: distribute a quadratic workload
// with optimal DLT allocations and watch the covered fraction vanish as
// workers are added — then contrast with a linear workload, where DLT
// covers everything.
//
//   ./nonlinear_dlt_demo [--n=1000] [--alpha=2] [--p=8]
#include <cstdio>
#include <iostream>

#include "core/nldl.hpp"
#include "util/cli.hpp"

using namespace nldl;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const double n = args.get_double("n", 1000.0);
  const double alpha = args.get_double("alpha", 2.0);
  const auto p = args.get_count("p", 8);

  std::printf("=== Section 2: one optimal DLT round on a workload of cost "
              "N^%.1f ===\n\n", alpha);

  // Show the actual schedule on a small platform first.
  const auto plat = platform::Platform::homogeneous(p, 1.0);
  const auto alloc = dlt::nonlinear_parallel_single_round(plat, n, alpha);
  const sim::Engine engine(plat, sim::EngineOptions{alpha});
  const auto result =
      engine.run(alloc.to_schedule(), sim::CommModelKind::kParallelLinks);
  std::printf("Gantt of the round on p = %zu homogeneous workers "
              "('-' receive, '#' compute):\n\n%s\n",
              p, sim::ascii_gantt(plat, result, 64).c_str());
  std::printf("every worker gets N/p = %.1f load units and finishes at "
              "t = %.1f\n\n", n / double(p), result.makespan);

  // The punchline table.
  std::printf("fraction of the total work W = N^%.1f left undone by the "
              "round:\n\n", alpha);
  util::Table table({"p", "remaining fraction", "1 - 1/p^(a-1)"});
  for (const std::size_t workers : {2UL, 4UL, 16UL, 64UL, 256UL, 1024UL}) {
    const auto plat_w = platform::Platform::homogeneous(workers, 1.0);
    const auto alloc_w =
        dlt::nonlinear_parallel_single_round(plat_w, n, alpha);
    table.row()
        .cell(workers)
        .cell(alloc_w.remaining_fraction, 6)
        .cell(dlt::remaining_fraction_homogeneous(workers, alpha), 6)
        .done();
  }
  table.print(std::cout);
  std::printf("\n=> adding workers makes the DLT-covered share *smaller*: "
              "there is no free lunch.\n");

  // Contrast: linear workload.
  const auto linear = dlt::nonlinear_parallel_single_round(plat, n, 1.0);
  std::printf("\ncontrast, alpha = 1 (classical divisible load): remaining "
              "fraction = %.6f — DLT covers everything.\n",
              linear.remaining_fraction);

  // And the fix for genuinely nonlinear jobs (Section 4): replicate data
  // and partition cleverly instead.
  std::printf("\nSection 4's answer for alpha = 2 workloads: replicate "
              "inputs and use heterogeneity-aware partitioning\n(see "
              "quickstart and outer_product_cluster examples).\n");
  return 0;
}
