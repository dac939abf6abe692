// QoS metrics of a multi-tenant run: SLO outcomes (deadline misses,
// goodput), preemption/restart overhead, and Jain's fairness index — the
// deadline-and-fairness counterpart of online::ServiceMetrics, which it
// embeds for the horizon, utilization and latency/wait percentiles of the
// admitted jobs.
#pragma once

#include <cstddef>
#include <vector>

#include "online/metrics.hpp"
#include "qos/server.hpp"

namespace nldl::qos {

struct QosMetrics {
  // --- population ---
  std::size_t offered = 0;   ///< jobs in the stream
  std::size_t admitted = 0;  ///< passed admission (incl. degraded)
  std::size_t rejected = 0;
  std::size_t degraded = 0;
  // --- SLO outcomes ---
  std::size_t offered_with_deadline = 0;
  std::size_t admitted_with_deadline = 0;
  /// Admitted deadline-carrying jobs that finished past their deadline.
  std::size_t deadline_misses = 0;
  /// deadline_misses / admitted_with_deadline (0 over zero jobs).
  double miss_rate = 0.0;
  /// (misses + rejected deadline jobs) / offered_with_deadline: the SLO
  /// failure probability an arriving customer experiences.
  double slo_violation_rate = 0.0;
  // --- load accounting ---
  double offered_load = 0.0;
  double served_load = 0.0;   ///< dispatched load (degradation shrinks it)
  double on_time_load = 0.0;  ///< served load of jobs that met their SLO
  /// on_time_load / service.horizon: useful work per unit time — the
  /// headline "are we serving the SLOs" number.
  double goodput = 0.0;
  // --- preemption overhead ---
  std::size_t preemptions = 0;
  double preemptions_per_job = 0.0;  ///< over admitted jobs
  double restart_time = 0.0;         ///< Σ restart inflation wall time
  /// restart_time / Σ service time: the fraction of the server's busy
  /// time burned re-dispatching preempted state — the measurable price
  /// of preemption.
  double restart_share = 0.0;
  // --- fairness ---
  /// Jain index over per-tenant weighted GOODPUT (on-time load / weight).
  /// Total served load is policy-independent in a drain-to-completion
  /// run (every admitted job finishes eventually), so fairness is scored
  /// on what tenants actually care about: work delivered within its SLO.
  /// 1 = every tenant's weighted on-time share is equal.
  double jain_fairness = 1.0;
  std::vector<double> tenant_served_load;   ///< per tenant, in tenant order
  std::vector<double> tenant_on_time_load;  ///< per tenant, in tenant order
  // --- platform and latency (admitted jobs only) ---
  /// online::summarize over the admitted jobs: horizon (last finish, 0
  /// when nothing was served), utilization, waits and latency
  /// percentiles. The slowdown fields are normalized by each job's
  /// PREDICTED uninterrupted service (qos runs record no isolated
  /// whole-platform baseline).
  online::ServiceMetrics service;
};

/// Aggregate `records` (in id order, as Server::run returns them).
/// `platform_size` (>= 1) feeds the utilization denominator; `weights[t]`
/// is tenant t's fair share (tenants beyond the vector get weight 1).
[[nodiscard]] QosMetrics summarize(const std::vector<JobRecord>& records,
                                   std::size_t platform_size,
                                   const std::vector<double>& weights = {});

}  // namespace nldl::qos
