#include "online/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace nldl::online {

namespace {

/// p50, p95 and p99 of `samples`, which it sorts.
void percentiles(std::vector<double>& samples, double& p50, double& p95,
                 double& p99) {
  std::sort(samples.begin(), samples.end());
  p50 = util::quantile_sorted(samples, 0.50);
  p95 = util::quantile_sorted(samples, 0.95);
  p99 = util::quantile_sorted(samples, 0.99);
}

}  // namespace

ServiceMetrics summarize(const std::vector<JobStats>& stats,
                         std::size_t platform_size) {
  NLDL_REQUIRE(platform_size >= 1, "metrics require at least one worker");
  ServiceMetrics metrics;
  metrics.jobs = stats.size();
  if (stats.empty()) return metrics;
  double busy = 0.0;
  util::RunningStats wait;
  util::RunningStats latency;
  util::RunningStats slowdown;
  std::vector<double> latencies;
  std::vector<double> slowdowns;
  latencies.reserve(stats.size());
  slowdowns.reserve(stats.size());
  for (const JobStats& record : stats) {
    // A finite latency also bounds the arrival and the wait, so no
    // non-finite sample reaches a mean or a sort.
    NLDL_REQUIRE(std::isfinite(record.finish) &&
                     std::isfinite(record.dispatch) &&
                     std::isfinite(record.compute_time) &&
                     std::isfinite(record.latency()),
                 "job record with non-finite times");
    NLDL_REQUIRE(record.dispatch >= record.job.arrival &&
                     record.finish >= record.dispatch,
                 "job record violates arrival <= dispatch <= finish");
    NLDL_REQUIRE(record.compute_time >= 0.0,
                 "job record with negative compute time");
    metrics.horizon = std::max(metrics.horizon, record.finish);
    busy += record.compute_time;
    wait.push(record.wait());
    latency.push(record.latency());
    latencies.push_back(record.latency());
    // Slowdown rule (see the header): a zero/epsilon isolated baseline
    // divides to a non-finite ratio — exclude the sample and count it.
    const double ratio = record.slowdown();
    if (std::isfinite(ratio)) {
      slowdown.push(ratio);
      slowdowns.push_back(ratio);
    } else {
      ++metrics.degenerate_slowdowns;
    }
  }
  if (metrics.horizon > 0.0) {
    metrics.throughput = static_cast<double>(metrics.jobs) / metrics.horizon;
    metrics.utilization =
        busy / (static_cast<double>(platform_size) * metrics.horizon);
  }
  metrics.mean_wait = wait.mean();
  metrics.max_wait = wait.max();
  metrics.mean_latency = latency.mean();
  percentiles(latencies, metrics.p50_latency, metrics.p95_latency,
              metrics.p99_latency);
  // Every slowdown sample may have been excluded as degenerate; the
  // slowdown fields then stay zero, as in an empty run.
  if (!slowdowns.empty()) {
    metrics.mean_slowdown = slowdown.mean();
    percentiles(slowdowns, metrics.p50_slowdown, metrics.p95_slowdown,
                metrics.p99_slowdown);
  }
  return metrics;
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
