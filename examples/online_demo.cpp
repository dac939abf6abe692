// Online scheduling demo: one 30-second burst of Poisson traffic, three
// schedulers side by side.
//
// The same job stream (mixed linear/quadratic divisible loads) is served
// by FCFS-exclusive, processor-partitioning fair share, and
// shortest-predicted-makespan-first, and the resulting service metrics
// and per-job latencies are compared.
//
//   ./online_demo [--p=8] [--rho=0.85] [--horizon=30] [--seed=N]
//                 [--trace=FILE]
//
// --trace=FILE re-runs the fair-share pass with an obs::TraceRecorder
// attached, writes the timeline as Chrome trace-event JSON (load it in
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
#include "sim/trace.hpp"
#include "util/chart.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace nldl;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto p = args.get_count("p", 8);
  const double rho = args.get_double("rho", 0.85);
  const double horizon = args.get_double("horizon", 30.0);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  const platform::Platform plat = platform::Platform::two_class(p, 1.0, 4.0);

  online::JobMix mix;
  mix.load_lo = 5.0;
  mix.load_hi = 15.0;
  mix.alphas = {1.0, 2.0};
  mix.alpha_weights = {0.5, 0.5};

  // Calibrate the Poisson rate so FCFS-exclusive service runs at ~rho.
  const double rate = rho / online::mean_predicted_makespan(mix, plat);

  const online::PoissonArrivals arrivals(rate, mix);
  util::Rng rng(seed);
  const auto jobs = arrivals.generate(horizon, rng);

  std::printf("Online demo: %zu jobs over %.0f s (Poisson, rate %.2f/s, "
              "target rho %.2f) on %zu workers\n\n",
              jobs.size(), horizon, rate, rho, p);

  const online::Server server(plat);
  const std::vector<online::SchedulerKind> kinds{
      online::SchedulerKind::kFcfs, online::SchedulerKind::kFairShare,
      online::SchedulerKind::kSpmf};

  util::Table table({"scheduler", "jobs", "mean wait", "p50 lat", "p95 lat",
                     "p99 lat", "mean slowdown", "utilization"});
  util::AsciiChart chart(72, 16);
  chart.set_x_label("arrival time (s)");
  chart.set_y_label("latency (s)");
  const char glyphs[] = {'F', 'P', 'M'};

  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const auto scheduler = online::make_scheduler(kinds[k], 4);
    const auto stats = server.run(jobs, *scheduler);
    const auto metrics = online::summarize(stats, plat.size());
    table.row()
        .cell(online::to_string(kinds[k]))
        .cell(metrics.jobs)
        .cell(metrics.mean_wait, 2)
        .cell(metrics.p50_latency, 2)
        .cell(metrics.p95_latency, 2)
        .cell(metrics.p99_latency, 2)
        .cell(metrics.mean_slowdown, 3)
        .cell(metrics.utilization, 3)
        .done();

    std::vector<double> xs;
    std::vector<double> ys;
    for (const auto& record : stats) {
      xs.push_back(record.job.arrival);
      ys.push_back(record.latency());
    }
    chart.add_series(online::to_string(kinds[k]), glyphs[k], xs, ys);
  }

  table.print(std::cout);
  std::printf("\nPer-job latency by arrival time:\n\n%s\n",
              chart.render().c_str());
  std::printf("F = fcfs-exclusive, P = fair-share partitions, M = "
              "shortest-predicted-makespan first\n");

  const std::string trace_path = args.get_string("trace", "");
  if (!trace_path.empty()) {
    // Traced fair-share re-run on the same stream (tracing never changes
    // results — the records are bit-identical to the untraced pass).
    obs::TraceRecorder recorder;
    online::ServerOptions options;
    options.trace = &recorder;
    const online::Server traced_server(plat, options);
    const online::FairShareScheduler fair(4);
    (void)traced_server.run(jobs, fair);

    std::ofstream out(trace_path);
    obs::ChromeTraceOptions trace_options;
    trace_options.workers = p;
    trace_options.label = "online demo fair-share";
    obs::write_chrome_trace(out, recorder.events(), trace_options);
    std::printf("\ntrace written to %s (%zu events) — load it in "
                "ui.perfetto.dev\n\n",
                trace_path.c_str(), recorder.size());
    std::fputs(sim::ascii_gantt(recorder.events(), p).c_str(), stdout);
    std::fputs(obs::render_attribution(
                   obs::attribute_time(recorder.events(), p), "fair-share")
                   .c_str(),
               stdout);
  }
  return 0;
}
