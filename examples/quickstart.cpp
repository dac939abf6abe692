// Quickstart: evaluate the paper's three data-distribution strategies on a
// heterogeneous platform in ~30 lines of API.
//
//   ./quickstart [--p=12] [--model=lognormal|uniform|homogeneous] [--seed=S]
#include <cstdio>
#include <iostream>

#include "core/nldl.hpp"
#include "util/cli.hpp"

using namespace nldl;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto p = args.get_count("p", 12);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));
  const std::string model_name = args.get_string("model", "lognormal");

  platform::SpeedModel model = platform::SpeedModel::kLogNormal;
  if (model_name == "uniform") model = platform::SpeedModel::kUniform;
  if (model_name == "homogeneous") model = platform::SpeedModel::kHomogeneous;

  // 1. Draw a heterogeneous star platform (Section 1.2 / 4.3 model).
  util::Rng rng(seed);
  const platform::Platform plat = platform::make_platform(model, p, rng);
  std::printf("platform: %zu workers, %s speeds, heterogeneity %.1fx\n\n",
              plat.size(), platform::to_string(model).c_str(),
              plat.heterogeneity());

  // 2. Evaluate all three strategies for an outer-product-style N² job.
  const double n = 10000.0;
  const auto evals = core::evaluate_all_strategies(plat.speeds(), n);

  util::Table table({"strategy", "comm volume", "x lower bound",
                     "imbalance e", "chunks", "k"});
  for (const auto& eval : evals) {
    table.row()
        .cell(core::to_string(eval.strategy))
        .cell(eval.comm_volume, 0)
        .cell(eval.ratio_to_lower_bound, 3)
        .cell(eval.load_imbalance, 4)
        .cell(eval.num_chunks)
        .cell(eval.refinement_k)
        .done();
  }
  table.print(std::cout);

  std::printf("\nlower bound: %.0f elements (2N * sum of sqrt(x_i))\n",
              partition::comm_lower_bound(plat.speeds(), n));
  std::printf("\nThe heterogeneity-aware PERI-SUM partition (Comm_het) "
              "ships close to the bound;\nMapReduce-style blocks pay the "
              "paper's 'no free lunch' replication price.\n");
  return 0;
}
