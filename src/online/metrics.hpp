// Service metrics of an online run: latency/slowdown percentiles,
// throughput, utilization.
//
// The accumulator is streaming: means via util::RunningStats, percentiles
// via the P² estimator (util::P2Quantile) — O(1) memory, so a run of
// millions of simulated jobs never stores per-job samples. Push order is
// part of the result (P² is order-sensitive); pushing in job-id order, as
// summarize() does, keeps metrics bit-identical across runs.
#pragma once

#include <cstddef>
#include <vector>

#include "online/job.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace nldl::online {

struct ServiceMetrics {
  std::size_t jobs = 0;
  double horizon = 0.0;      ///< last finish time (0 when no jobs)
  double throughput = 0.0;   ///< jobs / horizon
  double utilization = 0.0;  ///< Σ compute busy time / (p · horizon)
  /// Jobs whose slowdown sample was excluded as degenerate (see
  /// MetricsAccumulator): a zero/epsilon isolated-service baseline makes
  /// latency / baseline overflow to inf (or NaN), which would poison the
  /// slowdown mean and the P² quantile state. Such jobs still count
  /// toward every other metric.
  std::size_t degenerate_slowdowns = 0;
  double mean_wait = 0.0;
  double max_wait = 0.0;
  double mean_latency = 0.0;
  double p50_latency = 0.0;
  double p95_latency = 0.0;
  double p99_latency = 0.0;
  double mean_slowdown = 0.0;
  double p50_slowdown = 0.0;
  double p95_slowdown = 0.0;
  double p99_slowdown = 0.0;
};

/// Streaming accumulator over completed jobs.
///
/// Edge cases are total, never NaN: zero jobs finish() to an all-zero
/// ServiceMetrics, a single job's percentiles are exactly that sample,
/// and a zero-length horizon (every finish at t = 0) reports zero
/// throughput/utilization instead of dividing by zero. push() rejects
/// non-finite or out-of-order records up front rather than poisoning the
/// running means.
///
/// Slowdown rule: a job's slowdown sample enters the statistics only
/// when it is finite. A zero- or epsilon-service job (isolated baseline
/// ~0, e.g. a denormal makespan from a degenerate platform) divides to
/// inf — one such sample would drag the mean to inf forever and throw
/// inside the P² estimator mid-push, leaving the accumulator
/// inconsistent. Degenerate samples are instead counted in
/// ServiceMetrics::degenerate_slowdowns and the job contributes to every
/// other metric, so p50/p95/p99 slowdowns stay finite whatever the
/// stream contains.
class MetricsAccumulator {
 public:
  /// `platform_size` = worker count p of the serving platform, for the
  /// utilization denominator.
  explicit MetricsAccumulator(std::size_t platform_size);

  void push(const JobStats& stats);

  [[nodiscard]] std::size_t jobs() const noexcept { return jobs_; }
  [[nodiscard]] ServiceMetrics finish() const;

 private:
  std::size_t platform_size_;
  std::size_t jobs_ = 0;
  std::size_t degenerate_slowdowns_ = 0;
  double horizon_ = 0.0;
  double busy_ = 0.0;
  util::RunningStats wait_;
  util::RunningStats latency_;
  util::RunningStats slowdown_;
  util::P2Quantile latency_p50_{0.50};
  util::P2Quantile latency_p95_{0.95};
  util::P2Quantile latency_p99_{0.99};
  util::P2Quantile slowdown_p50_{0.50};
  util::P2Quantile slowdown_p95_{0.95};
  util::P2Quantile slowdown_p99_{0.99};
};

/// Accumulate `stats` in order and finish. (The vector the Server returns
/// is in job-id order, so this is deterministic.)
[[nodiscard]] ServiceMetrics summarize(const std::vector<JobStats>& stats,
                                       std::size_t platform_size);

/// Emit every ServiceMetrics field as key/value pairs into the currently
/// open JSON object — the ONE schema every bench driver's per-point
/// record shares, so the committed BENCH_*.json artifacts cannot drift
/// apart when a field is added.
void write_service_metrics(util::JsonWriter& json,
                           const ServiceMetrics& metrics);

}  // namespace nldl::online
