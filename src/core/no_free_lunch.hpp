// The paper's Section 2/3 quantitative claims as runnable sweeps:
//   - nonlinear loads: the fraction of work a DLT round leaves undone
//     (closed form 1 − 1/p^(α−1) vs the solved allocations);
//   - sorting: the almost-linear fraction log p / log N and the
//     sample-sort phase costs.
#pragma once

#include <cstddef>
#include <vector>

#include "platform/platform.hpp"
#include "util/table.hpp"

namespace nldl::core {

struct NflPoint {
  std::size_t p = 0;
  double alpha = 1.0;
  double closed_form = 0.0;          ///< 1 − 1/p^(α−1)
  double simulated_parallel = 0.0;   ///< solved allocation, parallel links
  double simulated_one_port = 0.0;   ///< solved allocation, one-port
};

/// Remaining-work fraction on homogeneous platforms (c = w = 1) for each
/// processor count, comparing the closed form with both solved models.
[[nodiscard]] std::vector<NflPoint> remaining_fraction_sweep(
    const std::vector<std::size_t>& worker_counts, double alpha,
    double total_load);

/// Same on an arbitrary (possibly heterogeneous) platform; closed_form is
/// filled with the homogeneous formula for reference.
[[nodiscard]] NflPoint remaining_fraction_on(
    const platform::Platform& platform, double alpha, double total_load);

struct SortingPoint {
  double n = 0.0;
  std::size_t p = 0;
  double fraction = 0.0;  ///< log p / log N
  double step1 = 0.0;     ///< s·p·log(s·p)
  double step2 = 0.0;     ///< N·log p
  double step3 = 0.0;     ///< (N/p)·log N
  /// (step1 + step2) / (p·step3): preprocessing vs the parallel phase's
  /// total work — tends to 0, showing sorting is almost divisible.
  double preprocessing_ratio = 0.0;
};

[[nodiscard]] std::vector<SortingPoint> sorting_fraction_sweep(
    const std::vector<double>& ns, const std::vector<std::size_t>& ps);

[[nodiscard]] util::Table nfl_table(const std::vector<NflPoint>& points);
[[nodiscard]] util::Table sorting_table(const std::vector<SortingPoint>& points);

}  // namespace nldl::core
