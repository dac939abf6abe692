// Cross-slot bandwidth contention: private ports vs one shared master.
//
// PR 3 showed processor-partitioning fair share collapsing under
// quadratic jobs because platform slices pay the w·X^alpha cost
// superlinearly. That experiment still granted every concurrent slot a
// PRIVATE master port (one busy period per slot). This bench re-runs the
// comparison with the master's bounded-multiport capacity genuinely
// shared across slots (online::MasterMode::kSharedMaster: one engine run
// per busy period multiplexing time-released chunks), crossing
//
//   traffic class  pure linear (alpha = 1) vs pure quadratic (alpha = 2),
//   scheduler      FCFS-exclusive, fair share, SPMF,
//   master mode    private-port vs shared-master,
//
// at a fixed load factor under one capped master. Each traffic class is
// ONE pre-generated Poisson stream replayed pathwise through every
// (scheduler, master) cell, so per-cell deltas are same-stream
// comparisons. Exclusive schedulers (FCFS, SPMF) are bit-identical
// across master modes — single-job busy periods cannot contend — which
// doubles as a runtime sanity check; fair share's quadratic collapse
// gets measurably worse once its slots stop enjoying private ports: no
// free lunch, again. Results stream to BENCH_contention.json under the
// bench::Harness serial-vs-parallel bitwise self-check.
//
// --trace=FILE re-runs the headline cell (quadratic traffic, fair share,
// shared master) with an obs::TraceRecorder attached, proves it emits
// the sweep's own point text (part of the exit code), exports the
// timeline as Chrome trace-event JSON to FILE, and prints the ASCII
// time-attribution summary.
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

const std::vector<double> kAlphas{1.0, 2.0};
const std::vector<online::SchedulerKind> kSchedulers{
    online::SchedulerKind::kFcfs, online::SchedulerKind::kFairShare,
    online::SchedulerKind::kSpmf};
const std::vector<online::MasterMode> kMasterModes{
    online::MasterMode::kPrivatePort, online::MasterMode::kSharedMaster};

constexpr std::size_t kFairShareSlots = 4;
constexpr double kBoundedCapacity = 2.0;
constexpr double kLoadFactor = 0.7;

online::JobMix job_mix(double alpha) {
  online::JobMix mix;
  mix.load_lo = 50.0;
  mix.load_hi = 150.0;
  mix.alphas = {alpha};
  mix.alpha_weights = {1.0};
  return mix;
}

struct PointResult {
  std::size_t alpha = 0;
  std::size_t scheduler = 0;
  std::size_t master = 0;
  std::size_t jobs = 0;
  online::ServiceMetrics metrics;
};

void write_point(util::JsonWriter& json, const PointResult& point) {
  json.begin_object();
  json.key("alpha").value(kAlphas[point.alpha]);
  json.key("scheduler")
      .value(online::to_string(kSchedulers[point.scheduler]));
  json.key("master").value(online::to_string(kMasterModes[point.master]));
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
  // One pre-generated stream per traffic class, replayed pathwise
  // through every (scheduler, master) cell: the load factor maps to an
  // arrival rate against the class's own exclusive-service capacity, so
  // "load 0.7" stresses the linear and quadratic cells equally.
  std::vector<std::vector<online::Job>> streams;
  for (const double alpha : kAlphas) {
    const double t_ref =
        online::mean_predicted_makespan(job_mix(alpha), plat);
    const double rate = kLoadFactor / t_ref;
    const double horizon = jobs_target / rate;
    util::Rng rng(seed + streams.size());
    streams.push_back(online::PoissonArrivals(rate, job_mix(alpha))
                          .generate(horizon, rng));
  }

  util::Grid grid;
  grid.axis("alpha", kAlphas.size())
      .axis("sched", kSchedulers.size())
      .axis("master", kMasterModes.size());
  util::SweepOptions options;
  options.threads = threads;
  options.seed = seed;

  return util::Sweep(std::move(grid), options)
      .map<PointResult>([&](const util::SweepPoint& point, util::Rng&) {
        PointResult result;
        result.alpha = point.index_of("alpha");
        result.scheduler = point.index_of("sched");
        result.master = point.index_of("master");

        const std::vector<online::Job>& jobs = streams[result.alpha];
        result.jobs = jobs.size();

        online::ServerOptions server_options;
        server_options.comm = sim::CommModelKind::kBoundedMultiport;
        server_options.capacity = kBoundedCapacity;
        server_options.master = kMasterModes[result.master];
        const online::Server server(plat, server_options);
        const auto scheduler = online::make_scheduler(
            kSchedulers[result.scheduler], kFairShareSlots,
            server_options.comm);
        result.metrics = online::summarize(
            server.run(jobs, *scheduler), plat.size());
        return result;
      });
}

void print_table(const std::vector<PointResult>& points) {
  util::Table table({"alpha", "scheduler", "master", "jobs", "util",
                     "p50 lat", "p95 lat", "p99 lat", "mean slowdown",
                     "p99 slowdown"});
  for (const PointResult& point : points) {
    table.row()
        .cell(kAlphas[point.alpha], 0)
        .cell(online::to_string(kSchedulers[point.scheduler]))
        .cell(online::to_string(kMasterModes[point.master]))
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

/// Mean slowdown of a (alpha, scheduler, master) cell.
double cell_slowdown(const std::vector<PointResult>& points,
                     std::size_t alpha, online::SchedulerKind scheduler,
                     online::MasterMode master) {
  for (const PointResult& point : points) {
    if (point.alpha == alpha &&  // nldl-lint: allow(double-eq): exact grid-point lookup; values copied verbatim
        kSchedulers[point.scheduler] == scheduler &&
        kMasterModes[point.master] == master) {
      return point.metrics.mean_slowdown;
    }
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const double jobs_target = args.get_double("jobs", 120.0);
  const auto p = args.get_count("p", 8);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  const platform::Platform plat =
      platform::Platform::two_class(p, 1.0, 4.0);

  bench::Harness harness("contention",
                         bench::harness_options_from_args(args));
  harness.config("jobs_target", jobs_target);
  harness.config("p", p);
  harness.config("platform", "two_class(slow=1, k=4)");
  harness.config("fair_share_slots", kFairShareSlots);
  harness.config("bounded_capacity", kBoundedCapacity);
  harness.config("load_factor", kLoadFactor);
  harness.config("seed", static_cast<std::int64_t>(seed));

  const auto points = harness.run<std::vector<PointResult>>(
      [&](std::size_t threads) {
        return compute_all(threads, plat, jobs_target, seed);
      },
      emit_points);

  std::printf("=== Cross-slot contention: private ports vs one shared "
              "master (load %.1f, capped master) ===\n\n",
              kLoadFactor);
  print_table(points);

  using online::MasterMode;
  using online::SchedulerKind;
  const double linear_private = cell_slowdown(
      points, 0, SchedulerKind::kFairShare, MasterMode::kPrivatePort);
  const double linear_shared = cell_slowdown(
      points, 0, SchedulerKind::kFairShare, MasterMode::kSharedMaster);
  const double quad_private = cell_slowdown(
      points, 1, SchedulerKind::kFairShare, MasterMode::kPrivatePort);
  const double quad_shared = cell_slowdown(
      points, 1, SchedulerKind::kFairShare, MasterMode::kSharedMaster);
  std::printf("\nfair-share mean slowdown, private -> shared master:\n");
  std::printf("  linear    (alpha=1): %.3f -> %.3f (x%.3f)\n",
              linear_private, linear_shared,
              linear_private > 0.0 ? linear_shared / linear_private : 0.0);
  std::printf("  quadratic (alpha=2): %.3f -> %.3f (x%.3f)\n",
              quad_private, quad_shared,
              quad_private > 0.0 ? quad_shared / quad_private : 0.0);
  std::printf("(exclusive schedulers are bit-identical across master "
              "modes: single-job busy periods cannot contend)\n");

  // --trace=FILE: re-run the headline cell (quadratic, fair share,
  // shared master) with a recorder attached, prove it emits the sweep's
  // own point text, and export the Perfetto-loadable timeline.
  bool trace_identical = true;
  const bench::TracedCellFlags traced_flags = bench::traced_cell_flags(args);
  if (traced_flags.any()) {
    const std::size_t alpha_index = 1;      // quadratic
    const std::size_t scheduler_index = 1;  // fair share
    const std::size_t master_index = 1;     // shared master

    // Regenerate the quadratic stream exactly as compute_all does.
    const double t_ref = online::mean_predicted_makespan(
        job_mix(kAlphas[alpha_index]), plat);
    const double rate = kLoadFactor / t_ref;
    util::Rng stream_rng(seed + alpha_index);
    const std::vector<online::Job> jobs =
        online::PoissonArrivals(rate, job_mix(kAlphas[alpha_index]))
            .generate(jobs_target / rate, stream_rng);

    obs::TraceRecorder recorder;
    obs::MetricsRegistry registry;
    online::ServerOptions server_options;
    server_options.comm = sim::CommModelKind::kBoundedMultiport;
    server_options.capacity = kBoundedCapacity;
    server_options.master = kMasterModes[master_index];
    server_options.trace = &recorder;
    const online::Server server(plat, server_options);
    const auto scheduler = online::make_scheduler(
        kSchedulers[scheduler_index], kFairShareSlots, server_options.comm);
    const PointResult traced{
        alpha_index, scheduler_index, master_index, jobs.size(),
        online::summarize(server.run(jobs, *scheduler, &registry),
                          plat.size())};

    for (const PointResult& point : points) {
      if (point.alpha == alpha_index &&  // nldl-lint: allow(double-eq): exact grid-point lookup; values copied verbatim
          point.scheduler == scheduler_index &&
          point.master == master_index) {
        trace_identical = point_text(traced) == point_text(point);
      }
    }
    std::printf("\ntraced quadratic fair-share shared-master: %zu jobs, "
                "%zu events | vs sweep cell: %s\n",
                jobs.size(), recorder.size(),
                trace_identical ? "bit-identical"
                                : "DIFFER (tracing changed results!)");

    trace_identical =
        bench::report_traced_cell(
            traced_flags, "contention fair-share shared-master alpha=2", p,
            recorder, registry) &&
        trace_identical;
  }

  const int harness_code = harness.finish();
  return trace_identical ? harness_code : 1;
}
