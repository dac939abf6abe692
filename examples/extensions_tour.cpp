// A guided tour of the nldl extensions that go beyond the paper's core
// experiments: multi-round distribution, return messages, straggler
// speculation, the recursive-bisection partitioner, and the 2.5D matmul
// model. Each section prints a small self-contained demonstration.
//
//   ./extensions_tour [--seed=S]
#include <cstdio>
#include <iostream>
#include <numeric>

#include "core/nldl.hpp"
#include "util/cli.hpp"

using namespace nldl;

namespace {

void tour_multi_round() {
  std::printf("--- 1. Multi-round distribution (Section 1.2's 'multiple "
              "rounds') ---\n");
  const auto plat = platform::Platform::homogeneous(4, 0.5);
  const double single =
      dlt::uniform_multi_round(plat, 100.0, 1).simulated_makespan;
  const auto best = dlt::best_multi_round(plat, 100.0);
  std::printf("one-port star, 4 workers, c/w = 0.5: single round %.2f -> "
              "best plan (R = %zu) %.2f (-%.1f%%)\n\n",
              single, best.rounds, best.simulated_makespan,
              100.0 * (1.0 - best.simulated_makespan / single));
}

void tour_return_messages() {
  std::printf("--- 2. Return messages (refs [28-30], set aside by the "
              "paper) ---\n");
  const auto plat = platform::Platform::homogeneous(4, 0.2);
  std::vector<std::size_t> order(plat.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (const double delta : {0.25, 1.0}) {
    const auto ideal = dlt::linear_parallel_with_return(plat, 100.0, delta);
    const auto fifo =
        dlt::one_port_fifo_with_return(plat, 100.0, delta, order);
    const auto lifo =
        dlt::one_port_lifo_with_return(plat, 100.0, delta, order);
    std::printf("delta = %.2f: parallel-links %.2f | one-port FIFO %.2f | "
                "LIFO %.2f\n",
                delta, ideal.makespan, fifo.makespan, lifo.makespan);
  }
  std::printf("\n");
}

void tour_speculation() {
  std::printf("--- 3. Stragglers and speculative re-execution (Section "
              "1.1's MapReduce resilience) ---\n");
  const auto tasks = mapreduce::outer_product_tasks(240, 24);
  mapreduce::StragglerConfig config;
  config.speeds = {1.0, 1.0, 1.0, 1.0};
  config.slowdown = {1.0, 1.0, 1.0, 10.0};
  const auto plain = mapreduce::run_with_stragglers(tasks, config);
  auto spec = config;
  spec.speculative_execution = true;
  const auto backed = mapreduce::run_with_stragglers(tasks, spec);
  std::printf("worker 4 slowed 10x: makespan %.1f -> %.1f with backups "
              "(%zu launched, %zu won)\n\n",
              plain.makespan, backed.makespan, backed.backup_launches,
              backed.backups_won);
}

void tour_bisection() {
  std::printf("--- 4. Recursive bisection vs PERI-SUM ---\n");
  util::Rng rng(7);
  const auto speeds =
      platform::make_platform(platform::SpeedModel::kLogNormal, 24, rng)
          .speeds();
  const auto dp = partition::peri_sum_partition(speeds);
  const auto bis = partition::recursive_bisection_partition(speeds);
  const double lb = partition::comm_lower_bound_unit(speeds);
  std::printf("24 lognormal workers: PERI-SUM %.4f x LB | bisection %.4f "
              "x LB (sum objective)\n",
              dp.total_half_perimeter / lb,
              bis.total_half_perimeter / lb);
  std::printf("max half-perimeter:   PERI-SUM %.4f      | bisection "
              "%.4f\n\n",
              dp.max_half_perimeter, bis.max_half_perimeter);
}

void tour_25d() {
  std::printf("--- 5. 2.5D matmul (ref [42], the paper's 'notable "
              "exception') ---\n");
  const double n = 8192.0;
  for (const std::size_t c : {1UL, 2UL, 4UL}) {
    const std::size_t p = 16 * c;
    const linalg::Matmul25DParams params{p, c};
    std::printf("p = %2zu, c = %zu: %.3g words/proc (memory %.1fx the "
                "minimal N^2/p)\n",
                p, c, linalg::matmul_25d_words_per_proc(n, params),
                linalg::matmul_25d_memory_per_proc(n, params) /
                    (n * n / double(p)));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  (void)args;
  std::printf("=== nldl extensions tour ===\n\n");
  tour_multi_round();
  tour_return_messages();
  tour_speculation();
  tour_bisection();
  tour_25d();
  std::printf("Each feature has full API docs in its header and dedicated "
              "tests under tests/.\n");
  return 0;
}
