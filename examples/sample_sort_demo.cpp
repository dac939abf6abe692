// Parallel sample sort walkthrough — the Figure 1 pipeline, executed:
// pivots choice → pivot sort → bucket construction → data communication →
// local sorts; homogeneous and heterogeneous (Section 3.2) variants.
//
//   ./sample_sort_demo [--n=1048576] [--p=8] [--seed=S]
#include <cstdio>
#include <iostream>

#include "core/nldl.hpp"
#include "util/cli.hpp"

using namespace nldl;

namespace {

void print_bucket_bars(const std::vector<std::size_t>& sizes,
                       const std::vector<double>& expected_share,
                       std::size_t n) {
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double rel =
        double(sizes[i]) / (expected_share[i] * double(n));
    const auto bar = static_cast<std::size_t>(rel * 30.0);
    std::printf("  bucket %2zu: %9zu keys (%.3fx its share) |", i + 1,
                sizes[i], rel);
    for (std::size_t c = 0; c < bar && c < 60; ++c) std::putchar('#');
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto n = args.get_count("n", 1 << 20);
  const auto p = args.get_count("p", 8);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  util::Rng rng(seed);
  std::vector<double> data(n);
  for (double& v : data) v = rng.lognormal(0.0, 1.0);  // skewed input

  util::ThreadPool pool(2);

  std::printf("=== Figure 1 pipeline: sample sort of %zu skewed keys on "
              "%zu workers ===\n\n", n, p);
  std::printf("Step 1: draw s*p = %zu * %zu sample keys, sort them, keep "
              "p-1 splitters\n",
              sort::default_oversampling(n), p);
  std::printf("Step 2: route every key to its bucket (binary search)\n");
  std::printf("Step 3: sort buckets in parallel — the divisible phase\n\n");

  sort::SampleSortConfig config;
  config.num_buckets = p;
  config.pool = &pool;
  config.seed = seed;
  sort::SampleSortStats stats;
  const auto sorted = sort::sample_sort(data, config, &stats);
  std::printf("sorted: %s | phases: %.3fs / %.3fs / %.3fs "
              "(preprocessing share %.1f%%)\n\n",
              std::is_sorted(sorted.begin(), sorted.end()) ? "yes" : "NO!",
              stats.step1_seconds, stats.step2_seconds, stats.step3_seconds,
              100.0 * (stats.step1_seconds + stats.step2_seconds) /
                  (stats.step1_seconds + stats.step2_seconds +
                   stats.step3_seconds + 1e-12));

  std::printf("homogeneous buckets (each expects N/p keys):\n");
  print_bucket_bars(stats.bucket_sizes,
                    std::vector<double>(p, 1.0 / double(p)), n);

  // Heterogeneous variant: fast workers get proportionally more keys.
  const auto plat = platform::Platform::two_class(p, 1.0, 4.0);
  const auto speeds = plat.speeds();
  sort::SampleSortStats het_stats;
  const auto het_sorted =
      sort::sample_sort_heterogeneous(data, speeds, config, &het_stats);
  std::printf("\nheterogeneous buckets (Section 3.2; speeds "
              "1,..,1,4,..,4):\n");
  std::vector<double> shares(p);
  double total = 0.0;
  for (const double s : speeds) total += s;
  for (std::size_t i = 0; i < p; ++i) shares[i] = speeds[i] / total;
  print_bucket_bars(het_stats.bucket_sizes, shares, n);

  std::printf("\nmodel completion times (bucket_size / speed) — balanced "
              "w.h.p.:\n");
  for (std::size_t i = 0; i < p; ++i) {
    std::printf("  worker %2zu: %.0f\n", i + 1,
                double(het_stats.bucket_sizes[i]) / speeds[i]);
  }
  std::printf("\nsorted: %s\n",
              std::is_sorted(het_sorted.begin(), het_sorted.end())
                  ? "yes" : "NO!");

  // The theory behind it.
  const double fraction =
      dlt::sorting_remaining_fraction(double(n), p);
  std::printf("\nremaining (non-divisible) work fraction log p / log N = "
              "%.4f — sorting is 'almost divisible'\n", fraction);
  return 0;
}
