// Service metrics of an online run: latency/slowdown percentiles,
// throughput, utilization.
//
// summarize() holds every record, so its percentiles are exact: the
// sorted samples read with util::quantile_sorted, whatever the record
// order. The means (util::RunningStats) accumulate in record order.
#pragma once

#include <cstddef>
#include <vector>

#include "online/job.hpp"
#include "util/json.hpp"

namespace nldl::online {

struct ServiceMetrics {
  std::size_t jobs = 0;
  double horizon = 0.0;      ///< last finish time (0 when no jobs)
  double throughput = 0.0;   ///< jobs / horizon
  double utilization = 0.0;  ///< Σ compute busy time / (p · horizon)
  /// Jobs whose slowdown sample was excluded as degenerate (see
  /// summarize): a zero/epsilon isolated-service baseline makes
  /// latency / baseline overflow to inf (or NaN), which would poison the
  /// slowdown mean and percentiles. Such jobs still count toward every
  /// other metric.
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

/// Summarize completed jobs; `platform_size` = worker count p of the
/// serving platform (>= 1), for the utilization denominator.
///
/// Edge cases are total, never NaN: zero jobs give an all-zero
/// ServiceMetrics, a single job's percentiles are exactly that sample,
/// and a zero-length horizon (every finish at t = 0) reports zero
/// throughput/utilization instead of dividing by zero. A record with a
/// non-finite time or latency, arrival > dispatch, dispatch > finish or
/// a negative compute time throws util::PreconditionError.
///
/// Slowdown rule: a job's slowdown sample enters the statistics only
/// when it is finite. A zero- or epsilon-service job (isolated baseline
/// ~0, e.g. a denormal makespan from a degenerate platform) divides to
/// inf, and one such sample would drag the mean and the upper
/// percentiles to inf. Degenerate samples are instead counted in
/// ServiceMetrics::degenerate_slowdowns and the job contributes to every
/// other metric; when every sample is degenerate the slowdown fields
/// read zero, as in an empty run.
[[nodiscard]] ServiceMetrics summarize(const std::vector<JobStats>& stats,
                                       std::size_t platform_size);

/// Emit every ServiceMetrics field as key/value pairs into the currently
/// open JSON object — the ONE schema every bench driver's per-point
/// record shares, so the committed BENCH_*.json artifacts cannot drift
/// apart when a field is added.
void write_service_metrics(util::JsonWriter& json,
                           const ServiceMetrics& metrics);

}  // namespace nldl::online
