#include "partition/block_homogeneous.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <tuple>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace nldl::partition {

namespace {

double min_normalized_speed(const std::vector<double>& speeds, double* total_out) {
  NLDL_REQUIRE(!speeds.empty(), "at least one worker required");
  double total = 0.0;
  double slowest = std::numeric_limits<double>::infinity();
  for (const double s : speeds) {
    NLDL_REQUIRE(s > 0.0, "speeds must be positive");
    total += s;
    slowest = std::min(slowest, s);
  }
  if (total_out != nullptr) *total_out = total;
  return slowest / total;
}

}  // namespace

HomogeneousBlocksFormula homogeneous_blocks_formula(
    const std::vector<double>& speeds, double n) {
  NLDL_REQUIRE(n > 0.0, "domain size must be positive");
  const double x1 = min_normalized_speed(speeds, nullptr);
  HomogeneousBlocksFormula out;
  out.block_dim = std::sqrt(x1) * n;
  out.num_blocks = 1.0 / x1;
  out.comm_volume = 2.0 * n / std::sqrt(x1);
  return out;
}

std::vector<long long> demand_driven_counts(const std::vector<double>& tau,
                                            long long num_blocks) {
  NLDL_REQUIRE(!tau.empty(), "at least one worker required");
  NLDL_REQUIRE(num_blocks >= 0, "block count must be >= 0");
  for (const double t : tau) NLDL_REQUIRE(t > 0.0, "tau must be positive");
  const std::size_t p = tau.size();
  std::vector<long long> counts(p, 0);
  if (num_blocks == 0) return counts;

  // Worker i completes its b-th block at time b·tau_i. The demand-driven
  // pull hands the B blocks to the B earliest completion slots in the
  // multiset {b·tau_i : b >= 1}. Find the time T of the B-th smallest slot
  // by bisection on Σ floor(T/tau_i), then distribute the residue among
  // workers whose next slot is exactly at the boundary.
  auto slots_within = [&](double T) {
    long long total = 0;
    for (const double t : tau) {
      total += static_cast<long long>(std::floor(T / t));
    }
    return total;
  };

  double lo = 0.0;
  double hi = static_cast<double>(num_blocks) *
              *std::min_element(tau.begin(), tau.end());
  // hi bounds the B-th smallest slot: the fastest worker alone provides B
  // slots by then.
  for (int iter = 0; iter < 200 && slots_within(hi) < num_blocks; ++iter) {
    hi *= 2.0;  // numerical safety; mathematically unreachable
  }
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (slots_within(mid) >= num_blocks) {
      hi = mid;
    } else {
      lo = mid;
    }
  }

  long long assigned = 0;
  for (std::size_t i = 0; i < p; ++i) {
    counts[i] = static_cast<long long>(std::floor(lo / tau[i]));
    assigned += counts[i];
  }
  NLDL_ASSERT(assigned <= num_blocks,
              "bisection overshoot in demand_driven_counts");
  // Hand out the remaining blocks in next-slot order (tie: lower index).
  using Slot = std::pair<double, std::size_t>;  // (next completion, worker)
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> heap;
  for (std::size_t i = 0; i < p; ++i) {
    heap.push({static_cast<double>(counts[i] + 1) * tau[i], i});
  }
  while (assigned < num_blocks) {
    const auto [time, worker] = heap.top();
    heap.pop();
    ++counts[worker];
    ++assigned;
    heap.push({static_cast<double>(counts[worker] + 1) * tau[worker], worker});
  }
  return counts;
}

std::vector<long long> demand_driven_counts_simulated(
    const std::vector<double>& tau, long long num_blocks) {
  NLDL_REQUIRE(!tau.empty(), "at least one worker required");
  NLDL_REQUIRE(num_blocks >= 0, "block count must be >= 0");
  for (const double t : tau) NLDL_REQUIRE(t > 0.0, "tau must be positive");
  const std::size_t p = tau.size();
  std::vector<long long> counts(p, 0);
  using Slot = std::pair<double, std::size_t>;  // (becomes free at, worker)
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> heap;
  for (std::size_t i = 0; i < p; ++i) heap.push({tau[i], i});
  for (long long b = 0; b < num_blocks; ++b) {
    const auto [time, worker] = heap.top();
    heap.pop();
    ++counts[worker];
    heap.push({time + tau[worker], worker});
  }
  return counts;
}

DemandDrivenBlocks homogeneous_blocks_demand_driven(
    const std::vector<double>& speeds, double n, int k) {
  NLDL_REQUIRE(n > 0.0, "domain size must be positive");
  NLDL_REQUIRE(k >= 1, "refinement divisor must be >= 1");
  double total_speed = 0.0;
  const double x1 = min_normalized_speed(speeds, &total_speed);
  const std::size_t p = speeds.size();

  DemandDrivenBlocks out;
  out.k = k;
  // Block area D²/k, i.e. dimension D/√k; the domain has k/x₁ blocks.
  out.block_dim = std::sqrt(x1 / static_cast<double>(k)) * n;
  const double continuous_blocks = static_cast<double>(k) / x1;
  out.num_blocks = std::max<long long>(
      static_cast<long long>(std::llround(continuous_blocks)), 1);

  // Per-block compute time on worker i: w_i · D_k². The common D_k² factor
  // does not change the assignment, but keep it for reporting makespan.
  const double block_area = out.block_dim * out.block_dim;
  std::vector<double> tau(p);
  for (std::size_t i = 0; i < p; ++i) tau[i] = block_area / speeds[i];

  out.blocks_per_worker = demand_driven_counts(tau, out.num_blocks);
  out.comm_volume = static_cast<double>(out.num_blocks) * 2.0 * out.block_dim;

  // Imbalance over the workers that got at least one block (the shared
  // util::imbalance_over_busy definition); a worker left idle is counted
  // separately rather than driving e to +infinity.
  std::vector<double> times(p);
  for (std::size_t i = 0; i < p; ++i) {
    times[i] = static_cast<double>(out.blocks_per_worker[i]) * tau[i];
  }
  out.makespan = *std::max_element(times.begin(), times.end());
  out.imbalance = util::imbalance_over_busy(times);
  out.idle_workers = util::count_idle(times);
  return out;
}

DemandDrivenBlocks refine_until_balanced(const std::vector<double>& speeds,
                                         double n, double target_e) {
  NLDL_REQUIRE(target_e > 0.0, "imbalance target must be positive");
  DemandDrivenBlocks last;
  for (int k = 1; k <= kMaxRefinementK; ++k) {
    last = homogeneous_blocks_demand_driven(speeds, n, k);
    // A partition that starves a worker is never "balanced", however small
    // e over the busy workers is — keep refining, as the old +inf
    // imbalance used to force implicitly.
    if (last.idle_workers == 0 && last.imbalance <= target_e) return last;
  }
  return last;  // best effort: the paper's criterion was not reached
}

}  // namespace nldl::partition
