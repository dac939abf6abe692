#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "online/arrivals.hpp"
#include "online/scheduler.hpp"
#include "qos/policy.hpp"
#include "qos/tenant.hpp"
#include "report.hpp"
#include "util/rng.hpp"

namespace servebench {

using nldl::online::Job;
using nldl::online::JobStats;
using nldl::qos::JobRecord;

namespace {

constexpr double kBoundedCapacity = 2.0;
constexpr double kOnlineLoad = 0.9;
constexpr double kSloLoadFactor = 0.8;
/// The reference tenants' slack factors (8, 2.5, 5) all exceed 1, so no
/// job is infeasible on an idle platform and admission never degrades.
/// Scaled by this, the interactive tenant's deadlines (0.875x its
/// predicted service) force the degrade bisection on every one of its
/// jobs, while batch (2.8x) and analytics (1.75x) stay admissible whole.
constexpr double kSloTightening = 0.35;
constexpr std::size_t kRounds = 3;
constexpr double kRestartFraction = 0.3;
/// Catalogue of recurring job sizes: the centres of 8 equal bins over the
/// soak's 40..120 range, so the mean load (80) matches online_soak.
constexpr double kCatalogue[] = {45.0, 55.0, 65.0, 75.0,
                                 85.0, 95.0, 105.0, 115.0};

nldl::online::JobMix soak_mix() {
  nldl::online::JobMix mix;
  mix.load_lo = 40.0;
  mix.load_hi = 120.0;
  mix.alphas = {1.0, 2.0};
  mix.alpha_weights = {0.5, 0.5};
  return mix;
}

/// Arrival rate at kOnlineLoad of the fair-share system's capacity: each
/// slot serves one job at a time on its 1/k slice, so capacity is the sum
/// of the slices' job rates (the bench_soak calibration).
double soak_rate() {
  const auto carve = bench_platform().interleaved_partition(kFairShareSlots);
  double capacity = 0.0;
  for (const nldl::platform::Platform& slot : carve.subsets) {
    capacity += 1.0 / nldl::online::mean_predicted_makespan(
                          soak_mix(), slot,
                          nldl::sim::CommModelKind::kBoundedMultiport);
  }
  return kOnlineLoad * capacity;
}

nldl::qos::ServiceModel service_model() {
  nldl::qos::ServiceModel service;
  service.comm = nldl::sim::CommModelKind::kBoundedMultiport;
  service.capacity = kBoundedCapacity;
  service.plan.rounds = kRounds;
  service.plan.restart_load_fraction = kRestartFraction;
  return service;
}

/// Generate over a horizon sized for `jobs` arrivals at `rate`, widening
/// it until the stream holds at least `jobs`, then keep the first `jobs`
/// (ids stay 0..n-1 in arrival order).
template <typename Generate>
std::vector<Job> exactly(std::size_t jobs, double rate,
                         const Generate& generate) {
  double horizon = 1.05 * static_cast<double>(jobs) / rate;
  std::vector<Job> stream = generate(horizon);
  while (stream.size() < jobs) {
    horizon *= 1.1;
    stream = generate(horizon);
  }
  stream.resize(jobs);
  return stream;
}

double snap_to_catalogue(double load) {
  const double bin = std::floor((load - 40.0) / 10.0);
  const auto index =
      static_cast<std::size_t>(std::clamp(bin, 0.0, 7.0));
  return kCatalogue[index];
}

bool finite(double value) { return std::isfinite(value); }

void add_record(Digest& digest, const JobRecord& record) {
  digest.add(static_cast<std::uint64_t>(record.job.id));
  digest.add(static_cast<std::uint64_t>(record.admitted) |
             static_cast<std::uint64_t>(record.degraded) << 1U);
  digest.add(record.served_load);
  digest.add(record.predicted_service);
  digest.add(record.dispatch);
  digest.add(record.finish);
  digest.add(record.service_time);
  digest.add(record.compute_time);
  digest.add(static_cast<std::uint64_t>(record.preemptions));
  digest.add(record.restart_time);
}

}  // namespace

std::optional<Workload> workload_from_string(std::string_view name) {
  for (const Workload workload : {Workload::kOnlineSoak, Workload::kQosCatalog,
                                  Workload::kQosSloTraced}) {
    if (name == to_string(workload)) return workload;
  }
  return std::nullopt;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kOnlineSoak:
      return "online_soak";
    case Workload::kQosCatalog:
      return "qos_catalog";
    case Workload::kQosSloTraced:
      return "qos_slo_traced";
  }
  return "?";
}

std::size_t default_jobs(Workload workload) {
  switch (workload) {
    case Workload::kOnlineSoak:
      return 50000;
    case Workload::kQosCatalog:
      return 50000;
    case Workload::kQosSloTraced:
      return 3000;
  }
  return 0;
}

const nldl::platform::Platform& bench_platform() {
  static const nldl::platform::Platform platform =
      nldl::platform::Platform::two_class(8, 1.0, 4.0);
  return platform;
}

nldl::online::ServerOptions online_options() {
  nldl::online::ServerOptions options;
  options.comm = nldl::sim::CommModelKind::kBoundedMultiport;
  options.capacity = kBoundedCapacity;
  options.master = nldl::online::MasterMode::kSharedMaster;
  options.record_isolated = false;
  return options;
}

nldl::qos::ServerOptions qos_options(Workload workload) {
  nldl::qos::ServerOptions options;
  options.service = service_model();
  if (workload == Workload::kQosCatalog) {
    options.admission.mode = nldl::qos::AdmissionMode::kAdmitAll;
    options.concurrency = 2;
  } else {
    options.admission.mode = nldl::qos::AdmissionMode::kDegrade;
    options.concurrency = 1;
  }
  return options;
}

std::vector<Job> make_stream(Workload workload, std::uint64_t seed,
                             std::size_t jobs) {
  if (workload == Workload::kQosSloTraced) {
    const std::vector<nldl::qos::TenantSpec> base =
        nldl::qos::reference_tenants();
    const double rate_total =
        kSloLoadFactor / nldl::qos::mean_predicted_service(
                             base, bench_platform(), service_model());
    std::vector<nldl::qos::TenantSpec> tenants = base;
    for (nldl::qos::TenantSpec& tenant : tenants) {
      tenant.rate *= rate_total;
      tenant.slo_slack_factor *= kSloTightening;
    }
    return exactly(jobs, rate_total, [&](double horizon) {
      nldl::util::Rng rng(seed);
      return nldl::qos::generate_tenant_traffic(
          tenants, bench_platform(), service_model(), horizon, rng);
    });
  }

  // The qos cell of bench_soak offers a quarter of the online rate: every
  // job becomes `rounds` installments plus restart inflation on
  // concurrency-2 subsets.
  const double rate =
      workload == Workload::kOnlineSoak ? soak_rate() : soak_rate() / 4.0;
  std::vector<Job> stream = exactly(jobs, rate, [&](double horizon) {
    nldl::util::Rng rng(seed);
    return nldl::online::PoissonArrivals(rate, soak_mix())
        .generate(horizon, rng);
  });
  if (workload == Workload::kQosCatalog) {
    for (Job& job : stream) job.load = snap_to_catalogue(job.load);
  }
  return stream;
}

std::vector<JobStats> run_online(const std::vector<Job>& jobs,
                                 nldl::obs::MetricsRegistry* metrics) {
  const nldl::online::FairShareScheduler fair(kFairShareSlots);
  return nldl::online::Server(bench_platform(), online_options())
      .run(jobs, fair, metrics);
}

std::vector<JobRecord> run_qos(Workload workload, const std::vector<Job>& jobs,
                               nldl::obs::TraceSink* trace,
                               nldl::obs::MetricsRegistry* metrics) {
  nldl::qos::ServerOptions options = qos_options(workload);
  options.trace = trace;
  const nldl::qos::Server server(bench_platform(), options);
  if (workload == Workload::kQosCatalog) {
    nldl::qos::SrptPolicy policy;
    return server.run(jobs, policy, metrics);
  }
  nldl::qos::EdfPolicy policy;
  return server.run(jobs, policy, metrics);
}

TraceAnalysis analyze_trace(const std::vector<nldl::obs::TraceEvent>& events) {
  TraceAnalysis out;
  Clock::time_point t0 = Clock::now();
  const nldl::obs::CriticalPath analysis(events);
  out.critical_path_s = seconds_between(t0, Clock::now());
  t0 = Clock::now();
  const nldl::obs::Attribution attribution =
      nldl::obs::attribute_time(events, bench_platform().size());
  out.attribution_s = seconds_between(t0, Clock::now());
  (void)attribution;
  nldl::obs::ChromeTraceOptions options;
  options.workers = bench_platform().size();
  options.label = "servebench qos_slo_traced";
  options.critical_path = &analysis;
  std::ostringstream chrome;
  t0 = Clock::now();
  nldl::obs::write_chrome_trace(chrome, events, options);
  out.export_s = seconds_between(t0, Clock::now());
  out.chrome = chrome.str();
  out.blamed_jobs = analysis.jobs().size();
  for (const nldl::obs::JobBlame& blame : analysis.jobs()) {
    if (blame.total() != blame.latency) ++out.blame_failures;
  }
  return out;
}

std::size_t failed_records(const std::vector<Job>& jobs,
                           const std::vector<JobStats>& stats) {
  std::size_t failed =
      jobs.size() > stats.size() ? jobs.size() - stats.size()
                                 : stats.size() - jobs.size();
  for (std::size_t i = 0; i < std::min(jobs.size(), stats.size()); ++i) {
    const JobStats& record = stats[i];
    const bool ok = record.job.id == i &&
                    same_bits(record.job.load, jobs[i].load) &&
                    finite(record.dispatch) && finite(record.finish) &&
                    finite(record.compute_time) &&
                    jobs[i].arrival <= record.dispatch &&
                    record.dispatch <= record.finish &&
                    record.compute_time >= 0.0;
    if (!ok) ++failed;
  }
  return failed;
}

std::size_t failed_records(const std::vector<Job>& jobs,
                           const std::vector<JobRecord>& records) {
  std::size_t failed =
      jobs.size() > records.size() ? jobs.size() - records.size()
                                   : records.size() - jobs.size();
  for (std::size_t i = 0; i < std::min(jobs.size(), records.size()); ++i) {
    const JobRecord& record = records[i];
    bool ok = record.job.id == i && same_bits(record.job.load, jobs[i].load) &&
              finite(record.served_load) &&
              finite(record.predicted_service) && finite(record.dispatch) &&
              finite(record.finish) && finite(record.service_time) &&
              finite(record.compute_time) && finite(record.restart_time);
    if (ok && record.admitted) {
      ok = jobs[i].arrival <= record.dispatch &&
           record.dispatch <= record.finish && record.served_load > 0.0 &&
           record.served_load <= jobs[i].load;
    } else if (ok) {
      ok = record.served_load == 0.0 &&
           same_bits(record.finish, jobs[i].arrival);
    }
    if (!ok) ++failed;
  }
  return failed;
}

std::uint64_t digest(const std::vector<JobStats>& stats) {
  Digest digest;
  for (const JobStats& record : stats) {
    digest.add(static_cast<std::uint64_t>(record.job.id));
    digest.add(record.dispatch);
    digest.add(record.finish);
    digest.add(record.compute_time);
    digest.add(static_cast<std::uint64_t>(record.slot));
  }
  return digest.value();
}

std::uint64_t digest(const std::vector<JobRecord>& records) {
  Digest digest;
  for (const JobRecord& record : records) add_record(digest, record);
  return digest.value();
}

std::size_t differing_records(const std::vector<JobRecord>& a,
                              const std::vector<JobRecord>& b) {
  std::size_t differ =
      a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    Digest left;
    Digest right;
    add_record(left, a[i]);
    add_record(right, b[i]);
    if (left.value() != right.value()) ++differ;
  }
  return differ;
}

}  // namespace servebench
