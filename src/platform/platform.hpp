// Heterogeneous master/worker star platform (paper Section 1.2).
//
// The master P0 holds all data and feeds p workers over independent links
// (parallel-communication model) or a shared one-port link, depending on the
// simulator configuration. The Platform itself is a passive description:
// processors, speeds, and the normalized relative speeds x_i = s_i / Σ s_k
// that drive every partitioning strategy in the paper.
#pragma once

#include <cstddef>
#include <vector>

#include "platform/processor.hpp"

namespace nldl::platform {

class Platform {
 public:
  /// Builds a platform from explicit workers. Requires at least one worker;
  /// every processor is validated.
  explicit Platform(std::vector<Processor> workers);

  /// Convenience: homogeneous platform of `p` identical workers of speed
  /// 1 (w = 1) and communication cost c.
  static Platform homogeneous(std::size_t p, double c = 1.0);

  /// Convenience: platform from explicit speeds s_i (w_i = 1/s_i), uniform
  /// communication cost c.
  static Platform from_speeds(const std::vector<double>& speeds,
                              double c = 1.0);

  /// The paper's Section 4.1.3 example: p/2 workers of speed `slow` and
  /// p/2 workers of speed `k * slow`. Requires even p.
  static Platform two_class(std::size_t p, double slow, double k,
                            double c = 1.0);

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }
  [[nodiscard]] const Processor& worker(std::size_t i) const;
  [[nodiscard]] const std::vector<Processor>& workers() const noexcept {
    return workers_;
  }

  [[nodiscard]] double c(std::size_t i) const { return worker(i).c; }
  [[nodiscard]] double w(std::size_t i) const { return worker(i).w; }
  [[nodiscard]] double speed(std::size_t i) const { return worker(i).speed(); }

  /// Σ s_i over all workers.
  [[nodiscard]] double total_speed() const noexcept;

  /// s_i for every worker.
  [[nodiscard]] std::vector<double> speeds() const;

  /// Normalized speeds x_i = s_i / Σ s_k (they sum to 1).
  [[nodiscard]] std::vector<double> normalized_speeds() const;

  /// True if workers are ordered by non-decreasing speed — the convention
  /// the paper assumes (s_1 <= s_2 <= ... <= s_p).
  [[nodiscard]] bool is_sorted_by_speed() const noexcept;

  /// A copy with workers sorted by non-decreasing speed.
  [[nodiscard]] Platform sorted_by_speed() const;

  /// Ratio of fastest to slowest speed (heterogeneity measure, >= 1).
  [[nodiscard]] double heterogeneity() const noexcept;

  /// A carve of the platform into disjoint subsets (see
  /// interleaved_partition). `workers[s][j]` is the index, on the parent
  /// platform, of subsets[s]'s j-th worker.
  struct Partition {
    std::vector<Platform> subsets;
    std::vector<std::vector<std::size_t>> workers;
  };

  /// Carve the platform into k disjoint subsets interleaved by worker
  /// index (worker i goes to subset i mod k), so a sorted or two-class
  /// platform splits evenly. k is clamped to [1, size()]. This is the
  /// carve behind the online server's fair-share slots and the qos
  /// server's concurrent installment subsets.
  [[nodiscard]] Partition interleaved_partition(std::size_t k) const;

 private:
  std::vector<Processor> workers_;
};

}  // namespace nldl::platform
