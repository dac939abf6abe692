// Streaming and batch statistics used by the experiment harness.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace nldl::util {

/// Numerically stable streaming statistics (Welford's algorithm).
///
/// Used to aggregate the 100-trial sweeps of the paper's Figure 4 without
/// storing every sample.
class RunningStats {
 public:
  void push(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }

  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }

  [[nodiscard]] double stddev() const noexcept;

  /// Population variance (n denominator); 0 when empty.
  [[nodiscard]] double population_variance() const noexcept {
    return count_ < 1 ? 0.0 : m2_ / static_cast<double>(count_);
  }

  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Linear-interpolation quantile of an *unsorted* sample (the input is
/// copied and sorted). q must lie in [0, 1]; the sample must be non-empty.
[[nodiscard]] double quantile(std::vector<double> sample, double q);

/// Quantile of an already-sorted sample (no copy).
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted,
                                     double q);

/// Load imbalance e = (t_max − t_min)/t_min over the *positive* entries
/// of `times` — the workers that actually received work. Returns 0 when
/// fewer than two entries are positive. This is the one shared definition
/// (paper Section 4.3) used by the sim engine, the partitioners, and the
/// workload executors: idle workers are counted via count_idle(), never
/// folded in as +infinity.
[[nodiscard]] double imbalance_over_busy(const std::vector<double>& times);

/// Number of non-positive entries of `times` (idle workers).
[[nodiscard]] std::size_t count_idle(const std::vector<double>& times);

/// Jain's fairness index J = (Σx)² / (n·Σx²) over per-entity allocations
/// (Jain, Chiu, Hawe 1984): 1 when every entity receives the same share,
/// 1/n when one entity receives everything. Entries must be >= 0 and
/// finite. Degenerate inputs — an empty vector or an all-zero allocation —
/// return 1 (nothing is shared unfairly), never NaN.
[[nodiscard]] double jain_index(const std::vector<double>& allocations);

/// Streaming hit/miss counter with NaN-free rates: the deadline-miss
/// accumulator of the qos subsystem. miss_rate() is 0 over zero trials,
/// never 0/0.
class HitRate {
 public:
  void push(bool hit) noexcept {
    ++trials_;
    if (hit) ++hits_;
  }

  [[nodiscard]] std::size_t trials() const noexcept { return trials_; }
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept {
    return trials_ - hits_;
  }
  [[nodiscard]] double hit_rate() const noexcept {
    return trials_ == 0
               ? 0.0
               : static_cast<double>(hits_) / static_cast<double>(trials_);
  }
  [[nodiscard]] double miss_rate() const noexcept {
    return trials_ == 0 ? 0.0 : 1.0 - hit_rate();
  }

 private:
  std::size_t trials_ = 0;
  std::size_t hits_ = 0;
};

}  // namespace nldl::util
