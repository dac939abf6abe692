#include "qos/metrics.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace nldl::qos {

QosMetrics summarize(const std::vector<JobRecord>& records,
                     std::size_t platform_size,
                     const std::vector<double>& weights) {
  QosMetrics metrics;
  std::vector<online::JobStats> admitted;
  util::HitRate admitted_slo;  // hit = admitted deadline job met its SLO
  std::size_t tenants = weights.size();
  for (const JobRecord& record : records) {
    tenants = std::max(tenants, record.job.tenant + 1);
  }
  metrics.tenant_served_load.assign(std::max<std::size_t>(tenants, 1), 0.0);
  metrics.tenant_on_time_load.assign(metrics.tenant_served_load.size(),
                                     0.0);

  double service_time = 0.0;
  for (const JobRecord& record : records) {
    ++metrics.offered;
    metrics.offered_load += record.job.load;
    if (record.job.has_deadline()) ++metrics.offered_with_deadline;
    if (!record.admitted) {
      ++metrics.rejected;
      continue;
    }
    ++metrics.admitted;
    if (record.degraded) ++metrics.degraded;
    metrics.served_load += record.served_load;
    metrics.tenant_served_load[record.job.tenant] += record.served_load;
    metrics.preemptions += record.preemptions;
    metrics.restart_time += record.restart_time;
    service_time += record.service_time;
    if (record.job.has_deadline()) {
      ++metrics.admitted_with_deadline;
      admitted_slo.push(record.met_deadline());
    }
    if (record.met_deadline()) {
      metrics.on_time_load += record.served_load;
      metrics.tenant_on_time_load[record.job.tenant] += record.served_load;
    }

    online::JobStats stats;
    stats.job = record.job;
    stats.dispatch = record.dispatch;
    stats.finish = record.finish;
    stats.compute_time = record.compute_time;
    // Slowdown baseline: the job's own predicted uninterrupted service
    // (there is no isolated whole-platform replay in qos runs), so the
    // slowdown percentiles read as latency normalized by service time.
    stats.isolated_makespan = record.predicted_service;
    admitted.push_back(stats);
  }
  metrics.service = online::summarize(admitted, platform_size);

  metrics.deadline_misses = admitted_slo.misses();
  metrics.miss_rate = admitted_slo.miss_rate();
  const std::size_t rejected_with_deadline =
      metrics.offered_with_deadline - metrics.admitted_with_deadline;
  metrics.slo_violation_rate =
      metrics.offered_with_deadline == 0
          ? 0.0
          : static_cast<double>(metrics.deadline_misses +
                                rejected_with_deadline) /
                static_cast<double>(metrics.offered_with_deadline);
  const double horizon = metrics.service.horizon;
  metrics.goodput = horizon > 0.0 ? metrics.on_time_load / horizon : 0.0;
  metrics.preemptions_per_job =
      metrics.admitted == 0
          ? 0.0
          : static_cast<double>(metrics.preemptions) /
                static_cast<double>(metrics.admitted);
  metrics.restart_share =
      service_time > 0.0 ? metrics.restart_time / service_time : 0.0;

  // Fairness over per-tenant weighted goodput: tenant t's allocation is
  // on-time load / weight, so equal normalized shares (the WFQ ideal)
  // score 1 regardless of the weights. See the header comment for why
  // TOTAL served load would be the wrong basis.
  std::vector<double> normalized(metrics.tenant_on_time_load.size());
  for (std::size_t t = 0; t < normalized.size(); ++t) {
    const double weight = t < weights.size() ? weights[t] : 1.0;
    NLDL_REQUIRE(weight > 0.0, "tenant weights must be positive");
    normalized[t] = metrics.tenant_on_time_load[t] / weight;
  }
  metrics.jain_fairness = util::jain_index(normalized);
  return metrics;
}

}  // namespace nldl::qos
