// Deadlines & fairness demo: three tenants, five policies, and the
// nonlinear price of preemption.
//
// A heavy-tailed batch tenant, a tight-SLO interactive tenant, and a
// quadratic analytics tenant share one star platform. The same job stream
// is served by FCFS, SPMF, SRPT-preemptive, EDF, and WFQ — once with free
// restarts (rho = 0) and once with a nonlinear restart surcharge
// (rho = 2) — and the deadline-miss, goodput, fairness, and restart
// metrics are compared side by side: the no-free-lunch theorem applied to
// preemption.
//
//   ./qos_demo [--p=8] [--rho-load=0.9] [--jobs=80] [--seed=N]
//              [--trace=FILE]
//
// --trace=FILE runs one extra SRPT rho = 2 pass with two concurrent
// installment streams and an obs::TraceRecorder attached, writes the
// timeline as Chrome trace-event JSON (load it in ui.perfetto.dev), and
// prints the multi-job ASCII gantt plus the time-attribution summary.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "qos/admission.hpp"
#include "qos/metrics.hpp"
#include "qos/policy.hpp"
#include "qos/server.hpp"
#include "qos/tenant.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace nldl;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto p = args.get_count("p", 8);
  const double rho_load = args.get_double("rho-load", 0.9);
  const double jobs_target = args.get_double("jobs", 80.0);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  const platform::Platform plat = platform::Platform::two_class(p, 1.0, 4.0);

  qos::ServiceModel reference;
  reference.plan.rounds = 4;
  // The same three tenants bench_qos sweeps (qos::reference_tenants).
  std::vector<qos::TenantSpec> tenants = qos::reference_tenants();
  const double t_ref =
      qos::mean_predicted_service(tenants, plat, reference);
  const double rate_total = rho_load / t_ref;
  for (qos::TenantSpec& tenant : tenants) tenant.rate *= rate_total;
  const double horizon = jobs_target / rate_total;

  util::Rng rng(seed);
  const auto jobs =
      qos::generate_tenant_traffic(tenants, plat, reference, horizon, rng);
  std::size_t with_deadline = 0;
  for (const auto& job : jobs) {
    if (job.has_deadline()) ++with_deadline;
  }
  std::printf("QoS demo: %zu jobs (%zu with SLO deadlines) from 3 tenants "
              "over %.0f s on %zu workers, target load %.2f\n\n",
              jobs.size(), with_deadline, horizon, p, rho_load);

  const std::vector<qos::PolicyKind> kinds{
      qos::PolicyKind::kFcfs, qos::PolicyKind::kSpmf,
      qos::PolicyKind::kSrpt, qos::PolicyKind::kEdf, qos::PolicyKind::kWfq};

  for (const double restart : {0.0, 2.0}) {
    qos::ServerOptions options;
    options.service = reference;
    options.service.plan.restart_load_fraction = restart;
    options.admission.mode = qos::AdmissionMode::kReject;
    const qos::Server server(plat, options);

    std::printf("--- restart fraction rho = %.0f (%s) ---\n", restart,
                restart == 0.0 ? "free checkpoints"
                               : "nonlinear restart surcharge");
    util::Table table({"policy", "rejected", "miss rate", "goodput",
                       "jain", "preempt/job", "restart%", "p95 lat"});
    for (const qos::PolicyKind kind : kinds) {
      const auto policy =
          qos::make_policy(kind, qos::tenant_weights(tenants));
      const qos::QosMetrics metrics =
          qos::summarize(server.run(jobs, *policy), plat.size(),
                         qos::tenant_weights(tenants));
      table.row()
          .cell(qos::to_string(kind))
          .cell(metrics.rejected)
          .cell(metrics.miss_rate, 3)
          .cell(metrics.goodput, 2)
          .cell(metrics.jain_fairness, 3)
          .cell(metrics.preemptions_per_job, 2)
          .cell(100.0 * metrics.restart_share, 1)
          .cell(metrics.service.p95_latency, 1)
          .done();
    }
    table.print(std::cout);
    std::printf("\n");
  }

  std::printf(
      "Free restarts reward preemption (SRPT/EDF); the nonlinear\n"
      "surcharge makes every resumed slice re-pay w*X^alpha, and the\n"
      "preemptive policies' advantage shrinks or flips — no free lunch.\n");

  const std::string trace_path = args.get_string("trace", "");
  if (!trace_path.empty()) {
    // One extra traced pass: SRPT under rho = 2 with two concurrent
    // installment streams, so the timeline carries real per-worker
    // transfer/compute spans (tracing never changes results).
    qos::ServerOptions options;
    options.service = reference;
    options.service.plan.restart_load_fraction = 2.0;
    options.admission.mode = qos::AdmissionMode::kReject;
    options.concurrency = 2;
    obs::TraceRecorder recorder;
    options.trace = &recorder;
    const qos::Server server(plat, options);
    const auto policy =
        qos::make_policy(qos::PolicyKind::kSrpt, qos::tenant_weights(tenants));
    (void)server.run(jobs, *policy);

    std::ofstream out(trace_path);
    obs::ChromeTraceOptions trace_options;
    trace_options.workers = p;
    trace_options.label = "qos demo srpt rho=2";
    obs::write_chrome_trace(out, recorder.events(), trace_options);
    std::printf("\ntrace written to %s (%zu events) — load it in "
                "ui.perfetto.dev\n\n",
                trace_path.c_str(), recorder.size());
    std::fputs(sim::ascii_gantt(recorder.events(), p).c_str(), stdout);
    std::fputs(obs::render_attribution(
                   obs::attribute_time(recorder.events(), p),
                   "srpt rho=2 conc=2")
                   .c_str(),
               stdout);
  }
  return 0;
}
