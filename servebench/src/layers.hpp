// The layer pass: times each layer's public calls from outside the
// servers.
//
// One pass runs the workload's server once untraced (the parent span),
// then rebuilds the sequence of calls the server made into each layer
// from the run's own public outputs — JobStats / JobRecord, the
// obs::MetricsRegistry replay counters and, for the qos workloads, an obs
// trace of a second, traced run — and re-drives those calls with one span
// per call. Every rebuilt output is compared with the run's output bit
// for bit; a difference counts as a failed record. Layer shares are span
// self times over the parent run's wall time; loop.share is what the
// rebuilt layers leave of the server's own run (scheduling, policy
// ranking, queues).
//
// Nested layers the servers call inside one public function (the dlt
// solve and the engine replay inside qos::InstallmentSolver::solve) are
// timed by a duplicate call on each memo miss; the solver's self time is
// its span minus those duplicates, so qos.solver.share is an estimate.
#pragma once

#include <cstdint>
#include <vector>

#include "online/job.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace servebench {

struct LayerResult {
  /// Every per-layer metric, in a fixed order, for every workload (layers
  /// a workload does not exercise report 0).
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  ///< records rebuilt, over all passes
  std::uint64_t failed = 0;     ///< records (or counters) that differ
  std::size_t passes = 0;
  double span_cost_ns = 0.0;  ///< measured whole cost of one empty span
};

/// Run layer passes for `seconds` of wall time (at least one) and report
/// the median of each timing metric over the passes.
[[nodiscard]] LayerResult layer_pass(Workload workload,
                                     const std::vector<nldl::online::Job>& jobs,
                                     double seconds);

}  // namespace servebench
