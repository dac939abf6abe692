// Shared-master contention demo: what happens to concurrent scheduling
// when the slots stop enjoying private master ports.
//
// Part 1 (online/): the same Poisson burst is served by fair share under
// a capped master twice — once with the historical private-port model
// (each slot's transfers replayed in a private engine run, so the cap
// applies per slot) and once with MasterMode::kSharedMaster (one engine
// run per busy period multiplexing every slot's time-released chunks, so
// the cap is genuinely shared). Linear and quadratic streams are shown
// side by side: the linear stream exposes how much of fair share's win
// was a private-port artifact, the quadratic stream shows the paper's
// collapse deepening.
//
// Part 2 (qos/): the preemptive server with concurrency = 2 serves
// installments of two different jobs on disjoint worker subsets at the
// same time, contending under the same shared capacity.
//
//   ./contention_demo [--p=8] [--rho=0.7] [--jobs=80] [--seed=N]
//                     [--trace=FILE]
//
// --trace=FILE attaches an obs::TraceRecorder to Part 2's concurrency = 2
// run, writes the timeline as Chrome trace-event JSON (load it in
// ui.perfetto.dev), and prints the multi-job ASCII gantt plus the
// time-attribution summary.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "online/arrivals.hpp"
#include "online/metrics.hpp"
#include "online/scheduler.hpp"
#include "online/server.hpp"
#include "platform/platform.hpp"
#include "qos/policy.hpp"
#include "qos/server.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace nldl;

namespace {

online::JobMix single_class_mix(double alpha) {
  online::JobMix mix;
  mix.load_lo = 50.0;
  mix.load_hi = 150.0;
  mix.alphas = {alpha};
  mix.alpha_weights = {1.0};
  return mix;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto p = args.get_count("p", 8);
  const double rho = args.get_double("rho", 0.7);
  const double jobs_target = args.get_double("jobs", 80.0);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  const platform::Platform plat = platform::Platform::two_class(p, 1.0, 4.0);
  constexpr double kCapacity = 2.0;

  std::printf("=== Part 1: fair share, private ports vs one shared master "
              "(capacity %.1f, load %.1f) ===\n\n",
              kCapacity, rho);

  util::Table table({"traffic", "master", "jobs", "mean wait",
                     "p95 lat", "mean slowdown", "p99 slowdown", "util"});
  for (const double alpha : {1.0, 2.0}) {
    const online::JobMix mix = single_class_mix(alpha);
    const double rate = rho / online::mean_predicted_makespan(mix, plat);
    util::Rng rng(seed);
    const auto jobs = online::PoissonArrivals(rate, mix)
                          .generate(jobs_target / rate, rng);

    for (const online::MasterMode master :
         {online::MasterMode::kPrivatePort,
          online::MasterMode::kSharedMaster}) {
      online::ServerOptions options;
      options.comm = sim::CommModelKind::kBoundedMultiport;
      options.capacity = kCapacity;
      options.master = master;
      const online::Server server(plat, options);
      const online::FairShareScheduler fair(4);
      const auto metrics =
          online::summarize(server.run(jobs, fair), plat.size());
      table.row()
          .cell(alpha == 1.0 ? "linear (a=1)" : "quadratic (a=2)")  // nldl-lint: allow(double-eq): alpha is an exact configuration constant
          .cell(online::to_string(master))
          .cell(metrics.jobs)
          .cell(metrics.mean_wait, 1)
          .cell(metrics.p95_latency, 1)
          .cell(metrics.mean_slowdown, 3)
          .cell(metrics.p99_slowdown, 3)
          .cell(metrics.utilization, 3)
          .done();
    }
  }
  table.print(std::cout);
  std::printf("\nFair share's advantage was partly the private ports' free "
              "lunch: share the master and the\nlinear stream pays the "
              "full contention bill, while the quadratic collapse gets "
              "deeper still.\n");

  std::printf("\n=== Part 2: qos server, 2 concurrent installment streams "
              "on disjoint subsets ===\n\n");

  const std::vector<online::Job> qos_jobs{
      {0, 0.0, 120.0, 2.0}, {1, 0.0, 120.0, 2.0}, {2, 5.0, 40.0, 1.0}};
  util::Table qos_table({"concurrency", "job", "dispatch", "finish",
                         "service", "preemptions"});
  obs::TraceRecorder recorder;
  const std::string trace_path = args.get_string("trace", "");
  for (const std::size_t concurrency : {std::size_t{1}, std::size_t{2}}) {
    qos::ServerOptions options;
    options.service.comm = sim::CommModelKind::kBoundedMultiport;
    options.service.capacity = kCapacity;
    options.service.plan.rounds = 3;
    options.service.plan.restart_load_fraction = 0.25;
    options.admission.mode = qos::AdmissionMode::kAdmitAll;
    options.concurrency = concurrency;
    if (concurrency == 2 && !trace_path.empty()) options.trace = &recorder;
    const qos::Server server(plat, options);
    qos::SrptPolicy srpt;
    const auto records = server.run(qos_jobs, srpt);
    for (const qos::JobRecord& record : records) {
      qos_table.row()
          .cell(concurrency)
          .cell(record.job.id)
          .cell(record.dispatch, 1)
          .cell(record.finish, 1)
          .cell(record.service_time, 1)
          .cell(record.preemptions)
          .done();
    }
  }
  qos_table.print(std::cout);
  std::printf("\nWith concurrency 2 both quadratic jobs start at t = 0 on "
              "half-platform subsets and the short\nlinear job slots in at "
              "a chunk boundary — all under one honestly shared master "
              "capacity.\n");

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    obs::ChromeTraceOptions trace_options;
    trace_options.workers = p;
    trace_options.label = "contention demo qos conc=2";
    obs::write_chrome_trace(out, recorder.events(), trace_options);
    std::printf("\ntrace written to %s (%zu events) — load it in "
                "ui.perfetto.dev\n\n",
                trace_path.c_str(), recorder.size());
    std::fputs(sim::ascii_gantt(recorder.events(), p).c_str(), stdout);
    std::fputs(obs::render_attribution(
                   obs::attribute_time(recorder.events(), p), "qos conc=2")
                   .c_str(),
               stdout);
  }
  return 0;
}
