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

P2Quantile::P2Quantile(double q) : q_(q) {
  NLDL_REQUIRE(q >= 0.0 && q <= 1.0, "quantile order must be in [0,1]");
  increments_[0] = 0.0;
  increments_[1] = q / 2.0;
  increments_[2] = q;
  increments_[3] = (1.0 + q) / 2.0;
  increments_[4] = 1.0;
}

void P2Quantile::push(double x) {
  // Infinities are rejected too, not only NaN: a single +/-inf sample
  // permanently poisons the marker heights (inf - inf in the parabolic
  // update) and every later value() would silently be NaN.
  NLDL_REQUIRE(std::isfinite(x), "P2Quantile requires finite samples");
  if (count_ < 5) {
    // Warm-up: keep the first five observations sorted in the heights.
    std::size_t i = count_;
    while (i > 0 && heights_[i - 1] > x) {
      heights_[i] = heights_[i - 1];
      --i;
    }
    heights_[i] = x;
    ++count_;
    if (count_ == 5) {
      for (std::size_t m = 0; m < 5; ++m) {
        positions_[m] = static_cast<double>(m + 1);
        desired_[m] = 1.0 + 4.0 * increments_[m];
      }
    }
    return;
  }

  // Locate the cell [h_k, h_{k+1}) containing x, extending the extremes.
  std::size_t k = 0;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = std::max(heights_[4], x);
    k = 3;
  } else {
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }
  ++count_;
  for (std::size_t m = k + 1; m < 5; ++m) positions_[m] += 1.0;
  for (std::size_t m = 0; m < 5; ++m) desired_[m] += increments_[m];

  // Nudge the three interior markers toward their desired positions.
  for (std::size_t m = 1; m <= 3; ++m) {
    const double d = desired_[m] - positions_[m];
    const double ahead = positions_[m + 1] - positions_[m];
    const double behind = positions_[m - 1] - positions_[m];
    if ((d >= 1.0 && ahead > 1.0) || (d <= -1.0 && behind < -1.0)) {
      const double s = d >= 0.0 ? 1.0 : -1.0;
      // Piecewise-parabolic (P²) prediction of the adjusted height.
      const double hp =
          heights_[m] +
          s / (positions_[m + 1] - positions_[m - 1]) *
              ((positions_[m] - positions_[m - 1] + s) *
                   (heights_[m + 1] - heights_[m]) / ahead +
               (positions_[m + 1] - positions_[m] - s) *
                   (heights_[m] - heights_[m - 1]) / (-behind));
      if (heights_[m - 1] < hp && hp < heights_[m + 1]) {
        heights_[m] = hp;
      } else {
        // Parabolic prediction broke monotonicity: fall back to linear.
        const std::size_t n = s > 0.0 ? m + 1 : m - 1;
        heights_[m] += s * (heights_[n] - heights_[m]) /
                       (positions_[n] - positions_[m]);
      }
      positions_[m] += s;
    }
  }
}

double P2Quantile::value() const {
  NLDL_REQUIRE(count_ > 0, "P2Quantile estimate of empty sample");
  if (count_ <= 5) {
    // Up to and including the fifth sample the heights still hold the
    // whole sorted sample (markers only move from the sixth push on):
    // Exact linear-interpolation quantile of the (sorted) warm-up sample —
    // identical to the batch quantile_sorted() oracle.
    return quantile_sorted(
        std::vector<double>(heights_, heights_ + count_), q_);
  }
  return heights_[2];
}

}  // namespace nldl::util
