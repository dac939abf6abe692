// QoS under nonlinear restart costs: load factor × policy × comm model ×
// restart fraction, with per-tenant heavy-tailed SLO traffic.
//
// Three tenants share one heterogeneous star platform through qos::Server:
// a heavy-tailed Pareto batch tenant, a tight-SLO interactive tenant
// (mixed linear/quadratic jobs), and a quadratic analytics tenant. The
// sweep crosses
//
//   load factor   0.5 / 0.8 / 1.1 of the installment-service capacity,
//   policy        FCFS, SPMF (non-preemptive), SRPT-preemptive, EDF, WFQ,
//   comm model    parallel-links, one-port, bounded-multiport,
//   restart       rho = 0 (free checkpoints) vs rho = 2 (each resume
//                 re-dispatches two installments' worth of state),
//
// and reports deadline-miss rates, goodput, Jain fairness, restart
// overhead, and latency percentiles. The headline comparison: with free
// restarts SRPT dominates the non-preemptive policies, and the nonlinear
// restart surcharge (quadratic jobs re-paying w·X^alpha on every resumed
// slice) flips that ranking — preemption is no free lunch
// (tests/test_qos.cpp pins the flip on a deterministic stream).
//
// Determinism: every load factor derives one job stream from a seed that
// depends only on the load axis, so policies, comm models, and restart
// fractions are compared PATHWISE on identical arrivals (deadlines are
// re-matched per comm model). The whole bench is a util::Sweep under
// bench::Harness: serial and parallel passes must agree bit for bit, and
// the metrics land in BENCH_qos.json.
//
// --trace=FILE re-runs the headline flip cell (overload, SRPT,
// bounded-multiport, rho = 2) at concurrency 4, bare and with an
// obs::TraceRecorder attached, proves the two emit the same point text
// (part of the exit code), exports the timeline as Chrome trace-event
// JSON to FILE, and prints the ASCII time-attribution summary.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.hpp"
#include "bench/traced_cell.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "qos/metrics.hpp"
#include "qos/policy.hpp"
#include "qos/server.hpp"
#include "qos/tenant.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"

using namespace nldl;

namespace {

const std::vector<double> kLoadFactors{0.5, 0.8, 1.1};
const std::vector<qos::PolicyKind> kPolicies{
    qos::PolicyKind::kFcfs, qos::PolicyKind::kSpmf, qos::PolicyKind::kSrpt,
    qos::PolicyKind::kEdf, qos::PolicyKind::kWfq};
const std::vector<sim::CommModelKind> kCommModels{
    sim::CommModelKind::kParallelLinks, sim::CommModelKind::kOnePort,
    sim::CommModelKind::kBoundedMultiport};
const std::vector<double> kRestartFractions{0.0, 2.0};

constexpr std::size_t kRounds = 4;
constexpr double kBoundedCapacity = 2.0;

qos::ServiceModel make_service(sim::CommModelKind comm, double restart) {
  qos::ServiceModel service;
  service.comm = comm;
  if (comm == sim::CommModelKind::kBoundedMultiport) {
    service.capacity = kBoundedCapacity;
  }
  service.plan.rounds = kRounds;
  service.plan.restart_load_fraction = restart;
  return service;
}

struct PointResult {
  double load_factor = 0.0;
  std::size_t policy = 0;
  std::size_t comm = 0;
  double restart = 0.0;
  qos::QosMetrics metrics;
};

void write_point(util::JsonWriter& json, const PointResult& point) {
  json.begin_object();
  json.key("load_factor").value(point.load_factor);
  json.key("policy").value(qos::to_string(kPolicies[point.policy]));
  json.key("comm").value(sim::to_string(kCommModels[point.comm]));
  json.key("restart_fraction").value(point.restart);
  const qos::QosMetrics& m = point.metrics;
  json.key("offered").value(m.offered);
  json.key("admitted").value(m.admitted);
  json.key("rejected").value(m.rejected);
  json.key("degraded").value(m.degraded);
  json.key("deadline_misses").value(m.deadline_misses);
  json.key("miss_rate").value(m.miss_rate);
  json.key("slo_violation_rate").value(m.slo_violation_rate);
  json.key("goodput").value(m.goodput);
  json.key("utilization").value(m.service.utilization);
  json.key("preemptions_per_job").value(m.preemptions_per_job);
  json.key("restart_share").value(m.restart_share);
  json.key("jain_fairness").value(m.jain_fairness);
  json.key("horizon").value(m.service.horizon);
  json.key("mean_latency").value(m.service.mean_latency);
  json.key("p50_latency").value(m.service.p50_latency);
  json.key("p95_latency").value(m.service.p95_latency);
  json.key("p99_latency").value(m.service.p99_latency);
  json.key("tenant_on_time_load").begin_array();
  for (const double load : m.tenant_on_time_load) json.value(load);
  json.end_array();
  json.end_object();
}

void emit_points(const std::vector<PointResult>& points,
                 util::JsonWriter& json) {
  for (const PointResult& point : points) write_point(json, point);
}

/// The points text the driver emits for one cell.
std::string point_text(const PointResult& point) {
  return bench::points_text(
      [&point](util::JsonWriter& json) { write_point(json, point); });
}

std::vector<PointResult> compute_all(std::size_t threads,
                                     const platform::Platform& plat,
                                     double jobs_target,
                                     std::uint64_t seed) {
  const std::vector<qos::TenantSpec> base = qos::reference_tenants();
  // Capacity reference under the parallel-links service model, so a
  // given load factor means the same arrival rates across every cell.
  const double t_ref = qos::mean_predicted_service(
      base, plat, make_service(sim::CommModelKind::kParallelLinks, 0.0));

  // Only load × comm distinct job streams exist (the stream seed depends
  // on the load axis alone and deadlines on the comm-matched prediction;
  // the policy and restart axes see identical traffic by design), so the
  // streams are generated once up front — NOT once per sweep point — and
  // the point lambda reads them. Read-only sharing across sweep threads.
  std::vector<std::vector<std::vector<online::Job>>> streams(
      kLoadFactors.size());
  for (std::size_t l = 0; l < kLoadFactors.size(); ++l) {
    const double rate_total = kLoadFactors[l] / t_ref;
    const double horizon = jobs_target / rate_total;
    std::vector<qos::TenantSpec> tenants = base;
    for (qos::TenantSpec& tenant : tenants) {
      tenant.rate *= rate_total;
    }
    streams[l].resize(kCommModels.size());
    for (std::size_t c = 0; c < kCommModels.size(); ++c) {
      util::Rng stream_rng(seed + 1000003 * (l + 1));
      streams[l][c] = qos::generate_tenant_traffic(
          tenants, plat, make_service(kCommModels[c], 0.0), horizon,
          stream_rng);
    }
  }

  util::Grid grid;
  grid.axis("load", kLoadFactors.size())
      .axis("policy", kPolicies.size())
      .axis("comm", kCommModels.size())
      .axis("restart", kRestartFractions.size());
  util::SweepOptions options;
  options.threads = threads;
  options.seed = seed;

  return util::Sweep(std::move(grid), options)
      .map<PointResult>([&](const util::SweepPoint& point,
                            util::Rng&) {
        PointResult result;
        result.load_factor = kLoadFactors[point.index_of("load")];
        result.policy = point.index_of("policy");
        result.comm = point.index_of("comm");
        result.restart = kRestartFractions[point.index_of("restart")];

        const qos::ServiceModel service = make_service(
            kCommModels[result.comm], result.restart);
        // Identical arrivals across the policy and restart axes
        // (deadlines comm-matched): the policy rankings in the JSON
        // are pathwise comparisons. The sweep's own pre-split rng is
        // deliberately unused — the streams were precomputed above.
        const auto& jobs =
            streams[point.index_of("load")][result.comm];

        const qos::Server server(plat, {service, {}});
        const auto policy = qos::make_policy(
            kPolicies[result.policy], qos::tenant_weights(base));
        result.metrics =
            qos::summarize(server.run(jobs, *policy), plat.size(),
                           qos::tenant_weights(base));
        return result;
      });
}

void print_table(const std::vector<PointResult>& points) {
  util::Table table({"load", "policy", "comm", "rho", "jobs", "miss",
                     "goodput", "jain", "restart%", "p95 lat"});
  for (const PointResult& point : points) {
    table.row()
        .cell(point.load_factor, 1)
        .cell(qos::to_string(kPolicies[point.policy]))
        .cell(sim::to_string(kCommModels[point.comm]))
        .cell(point.restart, 1)
        .cell(point.metrics.offered)
        .cell(point.metrics.miss_rate, 3)
        .cell(point.metrics.goodput, 2)
        .cell(point.metrics.jain_fairness, 3)
        .cell(100.0 * point.metrics.restart_share, 1)
        .cell(point.metrics.service.p95_latency, 1)
        .done();
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const double jobs_target = args.get_double("jobs", 100.0);
  const auto p = args.get_count("p", 8);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  const platform::Platform plat =
      platform::Platform::two_class(p, 1.0, 4.0);

  bench::Harness harness("qos", bench::harness_options_from_args(args));
  harness.config("jobs_target", jobs_target);
  harness.config("p", p);
  harness.config("platform", "two_class(slow=1, k=4)");
  harness.config("rounds", kRounds);
  harness.config("bounded_capacity", kBoundedCapacity);
  harness.config("tenants", "batch(pareto,loose) interactive(tight,w=3) "
                            "analytics(quadratic)");
  harness.config("seed", static_cast<std::int64_t>(seed));

  const auto points = harness.run<std::vector<PointResult>>(
      [&](std::size_t threads) {
        return compute_all(threads, plat, jobs_target, seed);
      },
      emit_points);

  std::printf("=== QoS: load x policy x comm x restart fraction "
              "(3 tenants, heavy-tailed + SLO traffic) ===\n\n");
  print_table(points);
  std::printf("\n(miss = deadline-miss rate among admitted SLO jobs; "
              "jain = fairness of weighted on-time goodput;\n restart%% = "
              "share of service time burned re-dispatching preempted "
              "state — preemption's nonlinear price)\n");

  // --trace=FILE: re-run the headline flip cell with a recorder attached,
  // prove it emits the same point as its untraced twin, and export the
  // Perfetto-loadable timeline. --blame adds the critical-path blame
  // table (and the pid-4 path overlay); --metrics=FILE dumps the cell's
  // MetricsRegistry as JSON; --slo sets the burn-rate objective (the
  // monitor always runs on the traced cell, its alerts land in the trace
  // as kAlert instants). Any of the flags runs the cell.
  bool trace_identical = true;
  const bench::TracedCellFlags traced_flags = bench::traced_cell_flags(args);
  if (traced_flags.any()) {
    const std::size_t load_index = kLoadFactors.size() - 1;    // 1.1
    const std::size_t policy_index = 2;                        // SRPT
    const std::size_t comm_index = 2;                          // bounded
    const double restart = kRestartFractions.back();           // rho = 2

    // Regenerate the cell's job stream exactly as compute_all does:
    // stream seed from the load axis, deadlines comm-matched.
    const std::vector<qos::TenantSpec> base = qos::reference_tenants();
    const double t_ref = qos::mean_predicted_service(
        base, plat, make_service(sim::CommModelKind::kParallelLinks, 0.0));
    const double rate_total = kLoadFactors[load_index] / t_ref;
    std::vector<qos::TenantSpec> tenants = base;
    for (qos::TenantSpec& tenant : tenants) tenant.rate *= rate_total;
    util::Rng stream_rng(seed + 1000003 * (load_index + 1));
    const std::vector<online::Job> jobs = qos::generate_tenant_traffic(
        tenants, plat, make_service(kCommModels[comm_index], 0.0),
        jobs_target / rate_total, stream_rng);

    // Concurrency 4 so the installments multiplex through one shared
    // engine run per busy period: the trace then carries real per-worker
    // transfer/compute spans (at concurrency 1 the solver alone times
    // each installment). Run the cell bare, then traced — the pair must
    // emit the same point text.
    std::vector<qos::JobRecord> cell_records;
    const auto run_cell = [&](obs::TraceSink* trace,
                              obs::MetricsRegistry* metrics,
                              std::vector<qos::JobRecord>* records_out) {
      qos::ServerOptions server_options;
      server_options.service =
          make_service(kCommModels[comm_index], restart);
      server_options.concurrency = 4;
      server_options.trace = trace;
      const qos::Server server(plat, server_options);
      const auto policy = qos::make_policy(kPolicies[policy_index],
                                           qos::tenant_weights(base));
      std::vector<qos::JobRecord> records =
          server.run(jobs, *policy, metrics);
      const qos::QosMetrics metrics_out = qos::summarize(
          records, plat.size(), qos::tenant_weights(base));
      if (records_out != nullptr) *records_out = std::move(records);
      return metrics_out;
    };
    obs::TraceRecorder recorder;
    obs::MetricsRegistry registry;
    PointResult cell{kLoadFactors[load_index], policy_index, comm_index,
                     restart, run_cell(nullptr, nullptr, nullptr)};
    const std::string bare = point_text(cell);
    cell.metrics = run_cell(&recorder, &registry, &cell_records);
    trace_identical = point_text(cell) == bare;
    std::printf("\ntraced load=%.1f srpt bounded rho=%.0f conc=4: "
                "%zu jobs, %zu events | vs untraced: %s\n",
                kLoadFactors[load_index], restart, jobs.size(),
                recorder.size(),
                trace_identical ? "bit-identical"
                                : "DIFFER (tracing changed results!)");

    // Burn-rate monitoring over the cell's deadline-miss budget: base
    // window = horizon/72 so the standard paging pair's slow windows
    // (12 and 72 base widths) both fit inside the run. Alerts land in
    // the recorder as kAlert instants and in the registry.
    const double slo_objective = args.get_double("slo", 0.95);
    double cell_horizon = 0.0;
    for (const qos::JobRecord& record : cell_records) {
      cell_horizon = std::max(cell_horizon, record.finish);
    }
    if (cell_horizon <= 0.0) cell_horizon = 72.0;
    obs::BurnRateMonitor monitor(
        obs::SloPolicy::paging(slo_objective, cell_horizon / 72.0),
        cell_horizon);
    for (const qos::JobRecord& record : cell_records) {
      if (!record.admitted) continue;
      monitor.observe(record.finish, record.finish > record.job.deadline);
    }
    monitor.finalize(&recorder, &registry);
    std::fputs(monitor.render().c_str(), stdout);

    trace_identical =
        bench::report_traced_cell(traced_flags, "qos srpt bounded rho=2", p,
                                  recorder, registry) &&
        trace_identical;
  }

  const int harness_code = harness.finish();
  return trace_identical ? harness_code : 1;
}
