// The three named workloads: how each job stream is generated from the
// seed, how each server is configured, and the per-record correctness
// checks every run's output must pass.
//
//   online_soak     online::Server, shared master, fair-share(4), bounded
//                   multiport (capacity 2), uniform loads 40..120, alpha
//                   in {1, 2}, load 0.9 of the slot capacity.
//   qos_catalog     qos::Server, concurrency 2, SRPT, 3 rounds, rho 0.3,
//                   admit-all; the same Poisson arrivals with every load
//                   snapped to a catalogue of 8 sizes (memo hits).
//   qos_slo_traced  qos::Server, serial, EDF, degrade admission, over the
//                   reference tenants at load 0.8 with deadlines at 0.35x
//                   their slack factors (so the interactive tenant must be
//                   degraded), traced, then critical path, time attribution
//                   and Chrome export.
//
// Platform for all three: Platform::two_class(8, 1.0, 4.0).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/job.hpp"
#include "online/server.hpp"
#include "platform/platform.hpp"
#include "qos/server.hpp"

namespace servebench {

enum class Workload { kOnlineSoak, kQosCatalog, kQosSloTraced };

[[nodiscard]] std::optional<Workload> workload_from_string(
    std::string_view name);
[[nodiscard]] const char* to_string(Workload workload);

/// Jobs per stream when --jobs is not given.
[[nodiscard]] std::size_t default_jobs(Workload workload);

/// The shared platform: two_class(8, slow = 1, k = 4).
[[nodiscard]] const nldl::platform::Platform& bench_platform();

constexpr std::size_t kFairShareSlots = 4;

[[nodiscard]] nldl::online::ServerOptions online_options();
[[nodiscard]] nldl::qos::ServerOptions qos_options(Workload workload);

/// Generate exactly `jobs` jobs of the workload's stream from `seed`,
/// including rate calibration (and, for qos_slo_traced, the deadline
/// prediction of every job). Pure function of its arguments.
[[nodiscard]] std::vector<nldl::online::Job> make_stream(Workload workload,
                                                         std::uint64_t seed,
                                                         std::size_t jobs);

// ---- running -------------------------------------------------------------

[[nodiscard]] std::vector<nldl::online::JobStats> run_online(
    const std::vector<nldl::online::Job>& jobs,
    nldl::obs::MetricsRegistry* metrics = nullptr);

[[nodiscard]] std::vector<nldl::qos::JobRecord> run_qos(
    Workload workload, const std::vector<nldl::online::Job>& jobs,
    nldl::obs::TraceSink* trace = nullptr,
    nldl::obs::MetricsRegistry* metrics = nullptr);

/// The "why was job J slow" analysis of a traced run, as users run it with
/// --trace/--blame: critical path, time attribution, Chrome export into
/// memory. Each step is timed.
struct TraceAnalysis {
  double critical_path_s = 0.0;
  double attribution_s = 0.0;
  double export_s = 0.0;
  std::string chrome;  ///< the exported Chrome trace-event JSON
  std::size_t blamed_jobs = 0;
  /// Jobs whose blame components do not sum exactly to their latency.
  std::size_t blame_failures = 0;
};
[[nodiscard]] TraceAnalysis analyze_trace(
    const std::vector<nldl::obs::TraceEvent>& events);

// ---- checks ----------------------------------------------------------------

/// Records that fail a per-record check: a non-finite value, arrival <=
/// dispatch <= finish violated, served load above the offered load, or a
/// job without exactly one record (a missing record counts its job).
[[nodiscard]] std::size_t failed_records(
    const std::vector<nldl::online::Job>& jobs,
    const std::vector<nldl::online::JobStats>& stats);
[[nodiscard]] std::size_t failed_records(
    const std::vector<nldl::online::Job>& jobs,
    const std::vector<nldl::qos::JobRecord>& records);

/// Digest of every per-job output field, bit for bit.
[[nodiscard]] std::uint64_t digest(
    const std::vector<nldl::online::JobStats>& stats);
[[nodiscard]] std::uint64_t digest(
    const std::vector<nldl::qos::JobRecord>& records);

/// Records whose output fields differ bitwise between two runs (a length
/// difference counts every unmatched record).
[[nodiscard]] std::size_t differing_records(
    const std::vector<nldl::qos::JobRecord>& a,
    const std::vector<nldl::qos::JobRecord>& b);

}  // namespace servebench
