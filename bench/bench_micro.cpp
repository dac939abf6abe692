// Microbenchmarks for the core kernels, on the same bench::Harness /
// util::Sweep protocol as every other driver (this used to be the one
// google-benchmark executable; the rewrite drops that dependency).
//
// Each grid point is one (kernel, size) pair: the kernel runs
// --micro-reps times (default 3), the best wall time is reported, and a
// deterministic checksum of the kernel's output is the point the
// harness's serial-vs-parallel bit-identity self-check compares. Wall
// times are reported from the serial pass only; the parallel pass
// re-validates the checksums.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <numeric>

#include "bench/harness.hpp"
#include "bench/profile.hpp"
#include "linalg/matmul.hpp"
#include "obs/trace.hpp"
#include "partition/block_homogeneous.hpp"
#include "partition/layout.hpp"
#include "partition/peri_sum.hpp"
#include "platform/platform.hpp"
#include "platform/speed_distributions.hpp"
#include "sim/comm_model.hpp"
#include "sim/engine.hpp"
#include "sim/multiplex.hpp"
#include "sort/sample_sort.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"

using namespace nldl;

namespace {

struct KernelCase {
  const char* name;
  std::size_t n;
  std::uint64_t seed;  ///< input-generation seed (fixed per case)
};

const std::vector<KernelCase> kCases{
    {"peri_sum_partition", 10, 1},
    {"peri_sum_partition", 100, 1},
    {"peri_sum_partition", 1000, 1},
    {"demand_driven_counts", 10, 2},
    {"demand_driven_counts", 100, 2},
    {"demand_driven_counts", 1000, 2},
    {"refine_until_balanced", 10, 3},
    {"refine_until_balanced", 100, 3},
    {"sample_sort", 1 << 16, 4},
    {"sample_sort", 1 << 19, 4},
    {"std_sort", 1 << 16, 5},
    {"std_sort", 1 << 19, 5},
    {"matmul_outer_product", 64, 6},
    {"matmul_outer_product", 128, 6},
    {"discretize", 10, 7},
    {"discretize", 100, 7},
    {"discretize", 1000, 7},
    {"engine_event_loop", 1000, 8},
    {"engine_event_loop", 10000, 8},
    {"shared_master_replay", 100, 9},
    {"shared_master_replay", 400, 9},
    {"trace_emission", 10000, 10},
    {"trace_emission", 100000, 10},
    {"trace_record", 100, 9},
    {"trace_record", 400, 9},
};

std::vector<double> random_speeds(std::size_t p, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto plat =
      platform::make_platform(platform::SpeedModel::kLogNormal, p, rng);
  return plat.speeds();
}

struct MicroResult {
  double checksum = 0.0;      ///< deterministic kernel output digest
  double best_seconds = 0.0;  ///< best of the inner repetitions
};

/// Run one kernel case: returns the checksum (identical on every run) and
/// the best wall time over `reps` executions.
MicroResult run_kernel(const KernelCase& kernel, std::size_t reps) {
  MicroResult out;
  out.best_seconds = -1.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    double checksum = 0.0;
    const double start = bench::WallClock::now();
    const std::string name(kernel.name);
    if (name == "peri_sum_partition") {
      const auto speeds = random_speeds(kernel.n, kernel.seed);
      checksum = partition::peri_sum_partition(speeds).total_half_perimeter;
    } else if (name == "demand_driven_counts") {
      const auto speeds = random_speeds(kernel.n, kernel.seed);
      std::vector<double> tau(speeds.size());
      for (std::size_t i = 0; i < tau.size(); ++i) tau[i] = 1.0 / speeds[i];
      const auto counts = partition::demand_driven_counts(tau, 100000);
      for (std::size_t i = 0; i < counts.size(); ++i) {
        checksum += static_cast<double>(counts[i]) * double(i + 1);
      }
    } else if (name == "refine_until_balanced") {
      const auto speeds = random_speeds(kernel.n, kernel.seed);
      const auto blocks =
          partition::refine_until_balanced(speeds, 1.0, 0.01);
      checksum = double(blocks.k) + blocks.imbalance;
    } else if (name == "sample_sort" || name == "std_sort") {
      util::Rng rng(kernel.seed);
      std::vector<double> data(kernel.n);
      for (double& v : data) v = rng.uniform();
      if (name == "sample_sort") {
        sort::SampleSortConfig config;
        config.num_buckets = 8;
        data = sort::sample_sort(std::move(data), config);
      } else {
        std::sort(data.begin(), data.end());
      }
      checksum = data.front() + data[data.size() / 2] + data.back();
    } else if (name == "matmul_outer_product") {
      util::Rng rng(kernel.seed);
      const auto a = linalg::Matrix::random(kernel.n, kernel.n, rng);
      const auto b = linalg::Matrix::random(kernel.n, kernel.n, rng);
      const std::vector<double> speeds{1.0, 2.0, 3.0, 4.0};
      const auto layout = partition::discretize(
          partition::peri_sum_partition(speeds),
          static_cast<long long>(kernel.n));
      const auto dist =
          linalg::matmul_outer_product(a, b, layout, speeds, 32);
      checksum = static_cast<double>(dist.total_elements) +
                 dist.result(0, 0) +
                 dist.result(kernel.n - 1, kernel.n - 1);
    } else if (name == "engine_event_loop") {
      // n time-released chunks drained through one sim::EngineRun — the
      // chunk-event hot path (link FIFOs, release heap, rate cache).
      const auto plat = platform::Platform::two_class(8, 1.0, 4.0);
      const sim::Engine engine(plat, {});
      const sim::BoundedMultiportModel model(2.0, 4);
      util::Rng rng(kernel.seed);
      sim::EngineRun run(engine, model);
      double release = 0.0;
      for (std::size_t i = 0; i < kernel.n; ++i) {
        if (rng.uniform() < 0.5) release += rng.uniform(0.0, 0.5);
        (void)run.append(
            {static_cast<std::size_t>(rng.uniform_int(0, 7)),
             rng.uniform(0.5, 4.0), release,
             rng.uniform() < 0.5 ? 1.0 : 2.0});
      }
      run.drain();
      checksum = run.makespan() + static_cast<double>(run.chunks());
    } else if (name == "shared_master_replay" || name == "trace_record") {
      // n dispatch+replay rounds of one incremental shared-master busy
      // period — the servers' per-decision cost. trace_record runs the
      // SAME workload with an obs::TraceRecorder attached: the delta
      // against shared_master_replay is the end-to-end emission cost.
      const auto plat = platform::Platform::two_class(8, 1.0, 4.0);
      const sim::Engine engine(plat, {});
      const sim::BoundedMultiportModel model(2.0, 4);
      std::vector<std::size_t> worker_map(plat.size());
      std::iota(worker_map.begin(), worker_map.end(), std::size_t{0});
      util::Rng rng(kernel.seed);
      obs::TraceRecorder recorder;
      sim::SharedMasterPeriod period(engine, model, {true});
      if (name == "trace_record") period.set_trace(&recorder);
      double now = 0.0;
      for (std::size_t i = 0; i < kernel.n; ++i) {
        now += rng.uniform(0.0, 1.0);
        const std::vector<sim::ChunkAssignment> chunks{
            {static_cast<std::size_t>(rng.uniform_int(0, 7)),
             rng.uniform(0.5, 4.0)},
            {static_cast<std::size_t>(rng.uniform_int(0, 7)),
             rng.uniform(0.5, 4.0)}};
        const std::size_t owner = period.dispatch(
            now, rng.uniform() < 0.5 ? 1.0 : 2.0, chunks, worker_map,
            i, 0);
        period.replay();
        checksum += period.finish(owner);
      }
      if (name == "trace_record") {
        period.clear();  // flush the spans the period still owes
        checksum += static_cast<double>(recorder.size());
      }
    } else if (name == "trace_emission") {
      // Raw obs::TraceRecorder::record throughput: n synthetic spans.
      obs::TraceRecorder recorder;
      util::Rng rng(kernel.seed);
      for (std::size_t i = 0; i < kernel.n; ++i) {
        obs::TraceEvent event;
        event.kind = (i % 2 == 0) ? obs::EventKind::kTransfer
                                  : obs::EventKind::kCompute;
        event.start = rng.uniform(0.0, 1e6);
        event.end = event.start + rng.uniform(0.0, 10.0);
        event.worker = i % 8;
        event.job = i % 64;
        event.size = rng.uniform(0.5, 4.0);
        recorder.record(event);
      }
      checksum = static_cast<double>(recorder.size()) +
                 recorder.events().back().end;
    } else if (name == "discretize") {
      const auto part =
          partition::peri_sum_partition(random_speeds(kernel.n, kernel.seed));
      const auto layout = partition::discretize(part, 1 << 20);
      checksum = static_cast<double>(layout.total_half_perimeter) +
                 static_cast<double>(layout.rects.size());
    } else {
      NLDL_ASSERT(false, "unknown micro kernel");
    }
    const double elapsed = bench::WallClock::now() - start;
    if (out.best_seconds < 0.0 || elapsed < out.best_seconds) {
      out.best_seconds = elapsed;
    }
    if (rep == 0) {
      out.checksum = checksum;
    } else {
      NLDL_ASSERT(out.checksum == checksum,
                  "micro kernel is not deterministic across repetitions");
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto micro_reps = args.get_count("micro-reps", 3);

  bench::Harness harness("micro", bench::harness_options_from_args(args));
  harness.config("micro_reps", micro_reps);
  harness.config("kernels", kCases.size());

  std::printf("=== Microbenchmarks: core kernels (best of %zu reps) "
              "===\n\n", micro_reps);

  const auto results = harness.run<std::vector<MicroResult>>(
      [&](std::size_t threads) {
        util::Grid grid;
        grid.axis("case", kCases.size());
        util::SweepOptions options;
        options.threads = threads;
        return util::Sweep(std::move(grid), options).map<MicroResult>(
            [micro_reps](const util::SweepPoint& point, util::Rng&) {
              return run_kernel(kCases[point.index_of("case")], micro_reps);
            });
      },
      [](const std::vector<MicroResult>& result, util::JsonWriter& json) {
        // Only the checksums are points — wall times are honest
        // measurements and never bit-stable.
        for (std::size_t i = 0; i < result.size(); ++i) {
          json.begin_object();
          json.key("kernel").value(kCases[i].name);
          json.key("n").value(kCases[i].n);
          json.key("checksum").value(result[i].checksum);
          json.end_object();
        }
      });

  util::Table table({"kernel", "n", "best (s)", "checksum"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    table.row()
        .cell(std::string(kCases[i].name))
        .cell(kCases[i].n)
        .cell(results[i].best_seconds, 6)
        .cell(results[i].checksum, 4)
        .done();
  }
  table.print(std::cout);

  return harness.finish([&](util::JsonWriter& json) {
    // Wall times live in the measured sidecar: honest measurements,
    // never bit-stable, never part of the reproduction check.
    json.key("kernels").begin_array();
    for (std::size_t i = 0; i < results.size(); ++i) {
      json.begin_object();
      json.key("kernel").value(kCases[i].name);
      json.key("n").value(kCases[i].n);
      json.key("best_seconds").value(results[i].best_seconds);
      json.end_object();
    }
    json.end_array();
  });
}
