#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace nldl::util {

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double quantile_sorted(const std::vector<double>& sorted, double q) {
  NLDL_REQUIRE(!sorted.empty(), "quantile of empty sample");
  NLDL_REQUIRE(q >= 0.0 && q <= 1.0, "quantile order must be in [0,1]");
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quantile(std::vector<double> sample, double q) {
  std::sort(sample.begin(), sample.end());
  return quantile_sorted(sample, q);
}

double jain_index(const std::vector<double>& allocations) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : allocations) {
    NLDL_REQUIRE(std::isfinite(x) && x >= 0.0,
                 "jain_index requires finite allocations >= 0");
    sum += x;
    sum_sq += x * x;
  }
  if (allocations.empty() || sum_sq == 0.0) return 1.0;
  return sum * sum /
         (static_cast<double>(allocations.size()) * sum_sq);
}

double imbalance_over_busy(const std::vector<double>& times) {
  double t_min = std::numeric_limits<double>::infinity();
  double t_max = 0.0;
  std::size_t busy = 0;
  for (const double t : times) {
    if (t <= 0.0) continue;
    ++busy;
    t_min = std::min(t_min, t);
    t_max = std::max(t_max, t);
  }
  if (busy < 2) return 0.0;
  return (t_max - t_min) / t_min;
}

std::size_t count_idle(const std::vector<double>& times) {
  std::size_t idle = 0;
  for (const double t : times) {
    if (t <= 0.0) ++idle;
  }
  return idle;
}

}  // namespace nldl::util
