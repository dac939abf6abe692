// Extension: the Section 3 sorting pipeline placed on the Section 1.2
// star platform — making "sorting is amenable to DLT" a simulated
// end-to-end schedule rather than a cost formula.
//
// Phases on the model platform:
//   Step 1 (master): sort the s·p sample               — w₀·s·p·log₂(s·p)
//   Step 2 (master): bucketize N keys (binary search)  — w₀·N·log₂(p)
//   Scatter: send bucket i to worker i                 — c_i·bucket_i
//            (parallel links: transfers overlap)
//   Step 3 (worker): local sort                        — w_i·b_i·log₂(b_i)
//
// The sample uses the paper's oversampling ratio s = log²N.
//
// The makespan is compared against the ideal fully-divisible time
// (Σ-speed-weighted N·log₂N), quantifying the "almost" in almost
// divisible.
#pragma once

#include <vector>

#include "platform/platform.hpp"

namespace nldl::sort {

struct DistributedSortConfig {
  double master_w = 1.0;    ///< master's time per unit of comparison work
  /// Use speed-proportional buckets (Section 3.2) instead of equal shares.
  bool heterogeneous_buckets = true;
};

struct DistributedSortPlan {
  std::vector<double> bucket_sizes;  ///< expected b_i per worker
  double step1_time = 0.0;           ///< sample sort on the master
  double step2_time = 0.0;           ///< bucketize on the master
  double scatter_time = 0.0;         ///< bucket transfers (model-dependent)
  double step3_time = 0.0;           ///< slowest worker's local sort
  double makespan = 0.0;             ///< total pipeline time
  /// Ideal divisible-load time: all comparison work spread over all
  /// workers by speed, ignoring preprocessing and transfers.
  double ideal_time = 0.0;
  /// makespan / ideal_time — tends to 1 for large N (the Section 3 claim).
  double overhead_ratio = 0.0;
};

/// Build the model schedule for sorting `n` keys on the platform.
/// Bucket sizes use the *expected* shares (the w.h.p. values of Theorem
/// B.4); the Monte-Carlo machinery in sort/theory.hpp quantifies deviations.
[[nodiscard]] DistributedSortPlan plan_distributed_sort(
    const platform::Platform& platform, double n,
    const DistributedSortConfig& config = {});

}  // namespace nldl::sort
