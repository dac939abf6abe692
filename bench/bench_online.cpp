// Online multi-job scheduling: load factor × scheduler × comm model.
//
// An open system of divisible-load jobs (Poisson arrivals, a mixed stream
// of linear alpha = 1 and quadratic alpha = 2 jobs) served by one
// heterogeneous star platform through online::Server. The sweep crosses
//
//   load factor   0.3 / 0.6 / 0.9 of the exclusive-service capacity,
//   scheduler     FCFS-exclusive, processor-partitioning fair share,
//                 shortest-predicted-makespan first (SPMF),
//   comm model    parallel-links, one-port, bounded-multiport,
//
// and reports per-job latency/slowdown percentiles (exact, over every
// job of the point), throughput, and utilization. Every point draws its
// job stream from its own pre-split RNG sub-stream, so the whole bench is a
// util::Sweep under bench::Harness: serial and parallel passes must agree
// bit for bit, and the metrics land in BENCH_online.json.
//
// --trace=FILE runs one extra high-load fair-share bounded-multiport
// cell twice on a fresh deterministic stream — once bare, once with an
// obs::TraceRecorder attached — proves the two emit the same point text
// (part of the exit code), exports the traced timeline as Chrome
// trace-event JSON to FILE, and prints the ASCII time-attribution summary.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "bench/traced_cell.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/arrivals.hpp"
#include "online/metrics.hpp"
#include "online/scheduler.hpp"
#include "online/server.hpp"
#include "platform/platform.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"

using namespace nldl;

namespace {

const std::vector<double> kLoadFactors{0.3, 0.6, 0.9};
const std::vector<online::SchedulerKind> kSchedulers{
    online::SchedulerKind::kFcfs, online::SchedulerKind::kFairShare,
    online::SchedulerKind::kSpmf};
const std::vector<sim::CommModelKind> kCommModels{
    sim::CommModelKind::kParallelLinks, sim::CommModelKind::kOnePort,
    sim::CommModelKind::kBoundedMultiport};

constexpr std::size_t kFairShareSlots = 4;
constexpr double kBoundedCapacity = 2.0;

online::JobMix job_mix() {
  online::JobMix mix;
  mix.load_lo = 50.0;
  mix.load_hi = 150.0;
  mix.alphas = {1.0, 2.0};
  mix.alpha_weights = {0.5, 0.5};
  return mix;
}

struct PointResult {
  double load_factor = 0.0;
  std::size_t scheduler = 0;
  std::size_t comm = 0;
  std::size_t jobs = 0;
  online::ServiceMetrics metrics;
};

void write_point(util::JsonWriter& json, const PointResult& point) {
  json.begin_object();
  json.key("load_factor").value(point.load_factor);
  json.key("scheduler")
      .value(online::to_string(kSchedulers[point.scheduler]));
  json.key("comm").value(sim::to_string(kCommModels[point.comm]));
  json.key("jobs").value(point.jobs);
  online::write_service_metrics(json, point.metrics);
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
  // Exclusive-service capacity reference: a load factor L maps to
  // arrival rate L / T_ref. The parallel-links reference is used for
  // every comm cell so a given load factor means the same arrival stream
  // across the comm axis.
  const double t_ref = online::mean_predicted_makespan(job_mix(), plat);

  util::Grid grid;
  grid.axis("load", kLoadFactors)
      .axis("sched", kSchedulers.size())
      .axis("comm", kCommModels.size());
  util::SweepOptions options;
  options.threads = threads;
  options.seed = seed;

  return util::Sweep(std::move(grid), options)
      .map<PointResult>([&](const util::SweepPoint& point,
                            util::Rng& rng) {
        PointResult result;
        result.load_factor = point.value("load");
        result.scheduler = point.index_of("sched");
        result.comm = point.index_of("comm");

        const double rate = result.load_factor / t_ref;
        const double horizon = jobs_target / rate;
        const online::PoissonArrivals arrivals(rate, job_mix());
        const auto jobs = arrivals.generate(horizon, rng);
        result.jobs = jobs.size();

        online::ServerOptions server_options;
        server_options.comm = kCommModels[result.comm];
        if (server_options.comm ==
            sim::CommModelKind::kBoundedMultiport) {
          server_options.capacity = kBoundedCapacity;
        }
        const online::Server server(plat, server_options);
        const auto scheduler = online::make_scheduler(
            kSchedulers[result.scheduler], kFairShareSlots,
            server_options.comm);
        result.metrics =
            online::summarize(server.run(jobs, *scheduler),
                              plat.size());
        return result;
      });
}

void print_table(const std::vector<PointResult>& points) {
  util::Table table({"load", "scheduler", "comm", "jobs", "util",
                     "p50 lat", "p95 lat", "p99 lat", "mean slowdown",
                     "p99 slowdown"});
  for (const PointResult& point : points) {
    table.row()
        .cell(point.load_factor, 1)
        .cell(online::to_string(kSchedulers[point.scheduler]))
        .cell(sim::to_string(kCommModels[point.comm]))
        .cell(point.jobs)
        .cell(point.metrics.utilization, 3)
        .cell(point.metrics.p50_latency, 1)
        .cell(point.metrics.p95_latency, 1)
        .cell(point.metrics.p99_latency, 1)
        .cell(point.metrics.mean_slowdown, 3)
        .cell(point.metrics.p99_slowdown, 3)
        .done();
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const double jobs_target = args.get_double("jobs", 150.0);
  const auto p = args.get_count("p", 8);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  const platform::Platform plat =
      platform::Platform::two_class(p, 1.0, 4.0);

  bench::Harness harness("online", bench::harness_options_from_args(args));
  harness.config("jobs_target", jobs_target);
  harness.config("p", p);
  harness.config("platform", "two_class(slow=1, k=4)");
  harness.config("fair_share_slots", kFairShareSlots);
  harness.config("bounded_capacity", kBoundedCapacity);
  harness.config("seed", static_cast<std::int64_t>(seed));

  const auto points = harness.run<std::vector<PointResult>>(
      [&](std::size_t threads) {
        return compute_all(threads, plat, jobs_target, seed);
      },
      emit_points);

  std::printf("=== Online multi-job service: load x scheduler x comm "
              "(Poisson arrivals, mixed alpha in {1, 2}) ===\n\n");
  print_table(points);
  std::printf("\n(slowdown = latency / isolated whole-platform makespan; "
              "SPMF ranks by predicted nonlinear makespan, not size)\n");

  // --trace=FILE: one extra high-load fair-share bounded-multiport cell,
  // run untraced then traced on the same fresh stream; the pair must emit
  // the same point text, and the traced timeline is exported. --blame adds the
  // critical-path blame table (and the pid-4 path overlay in the trace);
  // --metrics=FILE dumps the cell's MetricsRegistry as JSON. Either flag
  // runs the cell even without --trace.
  bool trace_identical = true;
  const bench::TracedCellFlags traced_flags = bench::traced_cell_flags(args);
  if (traced_flags.any()) {
    const double load = kLoadFactors.back();
    const double rate = load / online::mean_predicted_makespan(job_mix(),
                                                               plat);
    util::Rng stream_rng(seed ^ 0x7472616365ULL);  // independent stream
    const std::vector<online::Job> jobs =
        online::PoissonArrivals(rate, job_mix())
            .generate(jobs_target / rate, stream_rng);

    online::ServerOptions server_options;
    server_options.comm = sim::CommModelKind::kBoundedMultiport;
    server_options.capacity = kBoundedCapacity;
    const auto run_cell = [&](obs::TraceSink* trace,
                              obs::MetricsRegistry* metrics) {
      online::ServerOptions cell_options = server_options;
      cell_options.trace = trace;
      const online::Server server(plat, cell_options);
      const auto scheduler = online::make_scheduler(
          online::SchedulerKind::kFairShare, kFairShareSlots,
          cell_options.comm);
      return online::summarize(server.run(jobs, *scheduler, metrics),
                               plat.size());
    };
    obs::TraceRecorder recorder;
    obs::MetricsRegistry registry;
    // Compared as the points would print it: fair share (kSchedulers[1])
    // under bounded multiport (kCommModels[2]).
    PointResult cell{load, 1, 2, jobs.size(), run_cell(nullptr, nullptr)};
    const std::string bare = point_text(cell);
    cell.metrics = run_cell(&recorder, &registry);
    trace_identical = point_text(cell) == bare;
    std::printf("\ntraced load=%.1f fair-share bounded: %zu jobs, "
                "%zu events | vs untraced: %s\n",
                load, jobs.size(), recorder.size(),
                trace_identical ? "bit-identical"
                                : "DIFFER (tracing changed results!)");

    trace_identical =
        bench::report_traced_cell(traced_flags, "online fair-share bounded",
                                  p, recorder, registry) &&
        trace_identical;
  }

  const int harness_code = harness.finish();
  return trace_identical ? harness_code : 1;
}
