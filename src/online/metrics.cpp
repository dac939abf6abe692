#include "online/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace nldl::online {

MetricsAccumulator::MetricsAccumulator(std::size_t platform_size)
    : platform_size_(platform_size) {
  NLDL_REQUIRE(platform_size >= 1,
               "metrics require at least one worker");
}

void MetricsAccumulator::push(const JobStats& stats) {
  // Reject malformed records up front: one non-finite or negative-span
  // sample would otherwise poison every mean (and P2Quantile would throw
  // halfway through, leaving the accumulator inconsistent).
  NLDL_REQUIRE(std::isfinite(stats.finish) &&
                   std::isfinite(stats.dispatch) &&
                   std::isfinite(stats.compute_time),
               "job record with non-finite times");
  NLDL_REQUIRE(stats.dispatch >= stats.job.arrival &&
                   stats.finish >= stats.dispatch,
               "job record violates arrival <= dispatch <= finish");
  NLDL_REQUIRE(stats.compute_time >= 0.0,
               "job record with negative compute time");
  ++jobs_;
  horizon_ = std::max(horizon_, stats.finish);
  busy_ += stats.compute_time;
  wait_.push(stats.wait());
  latency_.push(stats.latency());
  latency_p50_.push(stats.latency());
  latency_p95_.push(stats.latency());
  latency_p99_.push(stats.latency());
  // Slowdown rule (see the header): a zero/epsilon isolated baseline
  // divides to a non-finite ratio — exclude the sample (and count it)
  // instead of poisoning the mean and the P² quantile state.
  const double slowdown = stats.slowdown();
  if (std::isfinite(slowdown)) {
    slowdown_.push(slowdown);
    slowdown_p50_.push(slowdown);
    slowdown_p95_.push(slowdown);
    slowdown_p99_.push(slowdown);
  } else {
    ++degenerate_slowdowns_;
  }
}

ServiceMetrics MetricsAccumulator::finish() const {
  ServiceMetrics metrics;
  metrics.jobs = jobs_;
  if (jobs_ == 0) return metrics;
  metrics.degenerate_slowdowns = degenerate_slowdowns_;
  metrics.horizon = horizon_;
  metrics.throughput =
      horizon_ > 0.0 ? static_cast<double>(jobs_) / horizon_ : 0.0;
  metrics.utilization =
      horizon_ > 0.0
          ? busy_ / (static_cast<double>(platform_size_) * horizon_)
          : 0.0;
  metrics.mean_wait = wait_.mean();
  metrics.max_wait = wait_.max();
  metrics.mean_latency = latency_.mean();
  metrics.p50_latency = latency_p50_.value();
  metrics.p95_latency = latency_p95_.value();
  metrics.p99_latency = latency_p99_.value();
  // Every slowdown sample may have been excluded as degenerate; report
  // zeros (like an empty run) instead of querying empty estimators.
  if (slowdown_.count() > 0) {
    metrics.mean_slowdown = slowdown_.mean();
    metrics.p50_slowdown = slowdown_p50_.value();
    metrics.p95_slowdown = slowdown_p95_.value();
    metrics.p99_slowdown = slowdown_p99_.value();
  }
  return metrics;
}

ServiceMetrics summarize(const std::vector<JobStats>& stats,
                         std::size_t platform_size) {
  MetricsAccumulator acc(platform_size);
  for (const JobStats& record : stats) acc.push(record);
  return acc.finish();
}

void write_service_metrics(util::JsonWriter& json,
                           const ServiceMetrics& metrics) {
  json.key("horizon").value(metrics.horizon);
  json.key("throughput").value(metrics.throughput);
  json.key("utilization").value(metrics.utilization);
  json.key("mean_wait").value(metrics.mean_wait);
  json.key("max_wait").value(metrics.max_wait);
  json.key("mean_latency").value(metrics.mean_latency);
  json.key("p50_latency").value(metrics.p50_latency);
  json.key("p95_latency").value(metrics.p95_latency);
  json.key("p99_latency").value(metrics.p99_latency);
  json.key("mean_slowdown").value(metrics.mean_slowdown);
  json.key("p50_slowdown").value(metrics.p50_slowdown);
  json.key("p95_slowdown").value(metrics.p95_slowdown);
  json.key("p99_slowdown").value(metrics.p99_slowdown);
  json.key("degenerate_slowdowns").value(metrics.degenerate_slowdowns);
}

}  // namespace nldl::online
