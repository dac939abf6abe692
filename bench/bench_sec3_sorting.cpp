// Section 3 — "DLT for almost linear workloads": sorting via sample sort.
//
// Regenerates:
//   (1) the log p / log N remaining-work fraction and the per-phase costs
//       of the sample-sort preprocessing (Section 3.1 analysis);
//   (2) a Monte-Carlo check of the Theorem B.4 bucket-size bound with the
//       paper's oversampling s = log²N (homogeneous and heterogeneous);
//   (3) the whole pipeline scheduled on star platforms: makespan vs the
//       ideal divisible time;
//   (4) actual parallel sample sort / merge sort executions with phase
//       wall-clock timings.
//
// Families (1)–(3) are deterministic util::Sweep grids driven by
// bench::Harness (serial vs parallel bit-identity self-checked at
// runtime); family (4) measures real wall-clock, so it runs once, before
// the sweeps: its bucket-size ratios join the points and its timings go
// to the measured sidecar.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench/harness.hpp"
#include "core/no_free_lunch.hpp"
#include "platform/speed_distributions.hpp"
#include "sort/distributed.hpp"
#include "sort/merge_sort.hpp"
#include "sort/sample_sort.hpp"
#include "sort/theory.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

using namespace nldl;

namespace {

const std::vector<double> kFractionNs{1 << 16, 1 << 20, 1 << 24, 1e9, 1e12};
const std::vector<double> kFractionPs{2, 8, 32, 128};
const std::vector<double> kBoundNs{100000, 1000000, 10000000};
const std::vector<double> kBoundPs{8, 32};
const std::vector<double> kHetBoundNs{1000000, 10000000};
const std::vector<double> kPipelineNs{1e6, 1e8, 1e10};

struct PipelineRow {
  std::size_t platform = 0;  ///< index into the platform list
  double n = 0.0;
  bool heterogeneous = false;
  double makespan = 0.0;
  double ideal = 0.0;
  double overhead = 0.0;
};

struct Sec3Results {
  std::vector<core::SortingPoint> fractions;      ///< n-major, p fastest
  std::vector<sort::BucketBoundCheck> bound_hom;  ///< n-major, p fastest
  std::vector<sort::BucketBoundCheck> bound_het;
  std::vector<PipelineRow> pipeline;
};

/// The star platforms of the scheduled-pipeline family. The heterogeneous
/// one is drawn once, before any sweep, so every (n, buckets) row sees the
/// same machine — the sweeps themselves stay pure.
std::vector<std::pair<std::string, platform::Platform>> pipeline_platforms(
    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<std::string, platform::Platform>> platforms;
  platforms.emplace_back("16 equal",
                         platform::Platform::homogeneous(16, 0.01));
  platforms.emplace_back(
      "uniform p=16",
      platform::make_platform(platform::SpeedModel::kUniform, 16, rng));
  return platforms;
}

Sec3Results compute_all(
    std::size_t threads, std::uint64_t seed,
    const std::vector<std::pair<std::string, platform::Platform>>&
        platforms,
    const std::vector<double>& het_speeds) {
  Sec3Results results;
  util::SweepOptions options;
  options.threads = threads;
  options.seed = seed;

  {
    util::Grid grid;
    grid.axis("n", kFractionNs).axis("p", kFractionPs);
    results.fractions =
        util::Sweep(std::move(grid), options).map<core::SortingPoint>(
            [](const util::SweepPoint& point, util::Rng&) {
              const auto p = static_cast<std::size_t>(point.value("p"));
              return core::sorting_fraction_sweep({point.value("n")},
                                                  {p})[0];
            });
  }
  {
    util::Grid grid;
    grid.axis("n", kBoundNs).axis("p", kBoundPs);
    results.bound_hom =
        util::Sweep(std::move(grid), options)
            .map<sort::BucketBoundCheck>(
                [seed](const util::SweepPoint& point, util::Rng&) {
                  return sort::validate_max_bucket_bound(
                      static_cast<std::size_t>(point.value("n")),
                      static_cast<std::size_t>(point.value("p")), 300,
                      seed);
                });
  }
  {
    util::Grid grid;
    grid.axis("n", kHetBoundNs);
    results.bound_het =
        util::Sweep(std::move(grid), options)
            .map<sort::BucketBoundCheck>(
                [seed, &het_speeds](const util::SweepPoint& point,
                                    util::Rng&) {
                  return sort::validate_max_bucket_bound_heterogeneous(
                      static_cast<std::size_t>(point.value("n")),
                      het_speeds, 300, seed + 1);
                });
  }
  {
    util::Grid grid;
    grid.axis("platform", platforms.size())
        .axis("n", kPipelineNs)
        .axis("het", std::size_t{2});
    results.pipeline =
        util::Sweep(std::move(grid), options).map<PipelineRow>(
            [&platforms](const util::SweepPoint& point, util::Rng&) {
              const std::size_t pi = point.index_of("platform");
              const platform::Platform& plat = platforms[pi].second;
              PipelineRow row;
              row.platform = pi;
              row.n = point.value("n");
              row.heterogeneous = point.index_of("het") == 1;
              sort::DistributedSortConfig config;
              config.heterogeneous_buckets = row.heterogeneous;
              // The master is an average machine of the platform.
              config.master_w =
                  static_cast<double>(plat.size()) / plat.total_speed();
              const auto plan =
                  sort::plan_distributed_sort(plat, row.n, config);
              row.makespan = plan.makespan;
              row.ideal = plan.ideal_time;
              row.overhead = plan.overhead_ratio;
              return row;
            });
  }
  return results;
}

struct ExecutedSortRow {
  std::size_t n = 0;
  std::size_t p = 0;
  sort::SampleSortStats stats;
};

/// Family (4a): real sample-sort executions — wall-clock, not self-checked.
std::vector<ExecutedSortRow> executed_sort(std::uint64_t seed) {
  std::printf("\n=== Executed parallel sample sort: phase wall-clock "
              "breakdown ===\n");
  std::printf("paper: Steps 1+2 (preprocessing) are dominated by Step 3 "
              "(the divisible phase)\n\n");
  util::ThreadPool pool(2);
  util::Table table({"N", "p", "step1 (s)", "step2 (s)", "step3 (s)",
                     "preproc share", "Max/(N/p)"});
  util::Rng rng(seed);
  std::vector<ExecutedSortRow> rows;
  for (const std::size_t n : {1UL << 18, 1UL << 20, 1UL << 22}) {
    std::vector<double> data(n);
    for (double& v : data) v = rng.uniform();
    for (const std::size_t p : {4UL, 16UL}) {
      sort::SampleSortConfig config;
      config.num_buckets = p;
      config.pool = &pool;
      config.seed = seed;
      sort::SampleSortStats stats;
      auto sorted = sort::sample_sort(data, config, &stats);
      const double pre = stats.step1_seconds + stats.step2_seconds;
      const double share = pre / (pre + stats.step3_seconds + 1e-12);
      table.row()
          .cell(n)
          .cell(p)
          .cell(stats.step1_seconds, 4)
          .cell(stats.step2_seconds, 4)
          .cell(stats.step3_seconds, 4)
          .cell(share, 3)
          .cell(stats.max_over_expected, 3)
          .done();
      rows.push_back(ExecutedSortRow{n, p, stats});
    }
  }
  table.print(std::cout);
  std::printf("\n(step2 is the N*log p bucketing on the master; step3 the "
              "parallel local sorts)\n");
  return rows;
}

struct SortRaceRow {
  std::size_t n = 0;
  double std_sort_seconds = 0.0;
  double merge_sort_seconds = 0.0;
  double sample_sort_seconds = 0.0;
};

/// Family (4b): sample sort vs parallel merge sort vs std::sort.
std::vector<SortRaceRow> sample_vs_merge(std::uint64_t seed) {
  // Baseline contrast: parallel merge sort's final k-way merge is residual
  // *non-divisible* work; sample sort's buckets are independent. Both are
  // executed here (2 threads) for wall-clock comparison.
  std::printf("\n=== Sample sort vs parallel merge sort (executed, 2 "
              "threads) ===\n\n");
  util::ThreadPool pool(2);
  util::Rng rng(seed);
  util::Table table({"N", "std::sort (s)", "merge sort (s)",
                     "sample sort (s)"});
  std::vector<SortRaceRow> rows;
  for (const std::size_t n : {1UL << 20, 1UL << 22}) {
    std::vector<double> data(n);
    for (double& v : data) v = rng.uniform();
    using Clock = std::chrono::steady_clock;

    auto copy = data;
    const auto t0 = Clock::now();  // nldl-lint: allow(nondet-source): sort wall timer — reported only
    std::sort(copy.begin(), copy.end());
    const auto t1 = Clock::now();  // nldl-lint: allow(nondet-source): sort wall timer — reported only

    auto merge_in = data;
    const auto t2 = Clock::now();  // nldl-lint: allow(nondet-source): sort wall timer — reported only
    const auto merged =
        sort::parallel_merge_sort(std::move(merge_in), 4, &pool);
    const auto t3 = Clock::now();  // nldl-lint: allow(nondet-source): sort wall timer — reported only

    sort::SampleSortConfig config;
    config.num_buckets = 4;
    config.pool = &pool;
    auto sample_in = data;
    const auto t4 = Clock::now();  // nldl-lint: allow(nondet-source): sort wall timer — reported only
    const auto sampled = sort::sample_sort(std::move(sample_in), config);
    const auto t5 = Clock::now();  // nldl-lint: allow(nondet-source): sort wall timer — reported only

    NLDL_ASSERT(merged == copy && sampled == copy,
                "parallel sorts disagree with std::sort");
    auto seconds = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    SortRaceRow row;
    row.n = n;
    row.std_sort_seconds = seconds(t0, t1);
    row.merge_sort_seconds = seconds(t2, t3);
    row.sample_sort_seconds = seconds(t4, t5);
    table.row()
        .cell(n)
        .cell(row.std_sort_seconds, 3)
        .cell(row.merge_sort_seconds, 3)
        .cell(row.sample_sort_seconds, 3)
        .done();
    rows.push_back(row);
  }
  table.print(std::cout);
  return rows;
}

/// Families (1)-(3), then the executed sorts' bucket-size ratios: a pure
/// function of the seed, while their wall-clock timings go to "measured".
void emit_points(const Sec3Results& results,
                 const std::vector<ExecutedSortRow>& executed,
                 util::JsonWriter& json) {
  for (const auto& point : results.fractions) {
    json.begin_object();
    json.key("family").value("fraction");
    json.key("n").value(point.n);
    json.key("p").value(point.p);
    json.key("log_p_over_log_n").value(point.fraction);
    json.key("preprocessing_ratio").value(point.preprocessing_ratio);
    json.end_object();
  }
  const auto emit_bound = [&json](const sort::BucketBoundCheck& check,
                                  const char* family) {
    json.begin_object();
    json.key("family").value(family);
    json.key("n").value(check.n);
    json.key("p").value(check.p);
    json.key("oversampling").value(check.oversampling);
    json.key("violation_rate").value(check.violation_rate);
    json.key("probability_bound").value(check.probability_bound);
    json.key("mean_max_over_expected")
        .value(check.mean_max_over_expected);
    json.end_object();
  };
  for (const auto& check : results.bound_hom) {
    emit_bound(check, "bucket_bound");
  }
  for (const auto& check : results.bound_het) {
    emit_bound(check, "bucket_bound_heterogeneous");
  }
  for (const auto& row : results.pipeline) {
    json.begin_object();
    json.key("family").value("scheduled_pipeline");
    json.key("platform").value(row.platform);
    json.key("n").value(row.n);
    json.key("heterogeneous_buckets").value(row.heterogeneous);
    json.key("makespan").value(row.makespan);
    json.key("ideal").value(row.ideal);
    json.key("overhead_ratio").value(row.overhead);
    json.end_object();
  }
  for (const auto& row : executed) {
    json.begin_object();
    json.key("family").value("executed_sample_sort");
    json.key("n").value(row.n);
    json.key("p").value(row.p);
    json.key("max_over_expected").value(row.stats.max_over_expected);
    json.end_object();
  }
}

void print_tables(
    const Sec3Results& results,
    const std::vector<std::pair<std::string, platform::Platform>>&
        platforms) {
  std::printf("=== Sorting: remaining fraction log p / log N and phase "
              "costs (Section 3.1) ===\n");
  std::printf("paper: fraction -> 0 for large N, so sorting is 'almost "
              "divisible'\n\n");
  core::sorting_table(results.fractions).print(std::cout);

  std::printf("\n=== Theorem B.4 bucket bound, Monte-Carlo with "
              "s = log^2 N (Section 3.1) ===\n");
  std::printf("paper: Pr[MaxSize >= (N/p)(1+(1/ln N)^(1/3))] <= N^(-1/3)\n\n");
  util::Table table({"N", "p", "s", "threshold/(N/p)", "violation rate",
                     "bound N^(-1/3)", "mean Max/(N/p)"});
  for (const auto& check : results.bound_hom) {
    table.row()
        .cell(check.n)
        .cell(check.p)
        .cell(check.oversampling)
        .cell(check.threshold /
                  (double(check.n) / double(check.p)), 4)
        .cell(check.violation_rate, 4)
        .cell(check.probability_bound, 4)
        .cell(check.mean_max_over_expected, 4)
        .done();
  }
  table.print(std::cout);

  std::printf("\nheterogeneous splitters (Section 3.2): worst bucket "
              "relative to its own share x_i*N\n\n");
  util::Table het({"N", "speeds", "violation rate", "bound",
                   "mean worst rel. size"});
  for (const auto& check : results.bound_het) {
    het.row()
        .cell(check.n)
        .cell(std::string("uniform[1,100], p=16"))
        .cell(check.violation_rate, 4)
        .cell(check.probability_bound, 4)
        .cell(check.mean_max_over_expected, 4)
        .done();
  }
  het.print(std::cout);

  std::printf("\n=== The whole pipeline on the star platform (model "
              "schedule): makespan vs the ideal divisible time ===\n");
  std::printf("overhead ratio -> 1 as N grows: sorting becomes a true "
              "divisible load\n\n");
  util::Table pipeline({"platform", "N", "buckets", "makespan", "ideal",
                        "overhead ratio"});
  for (const PipelineRow& row : results.pipeline) {
    pipeline.row()
        .cell(platforms[row.platform].first)
        .cell(row.n, 0)
        .cell(std::string(row.heterogeneous ? "speed-prop." : "equal"))
        .cell(row.makespan, 0)
        .cell(row.ideal, 0)
        .cell(row.overhead, 4)
        .done();
  }
  pipeline.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<long long>(util::Rng::kDefaultSeed)));

  bench::Harness harness("sec3_sorting",
                         bench::harness_options_from_args(args));
  harness.config("seed", static_cast<std::int64_t>(seed));

  const auto platforms = pipeline_platforms(seed);
  util::Rng het_rng(seed);
  const auto het_speeds =
      platform::make_platform(platform::SpeedModel::kUniform, 16, het_rng)
          .speeds();

  // The executed sample sorts run first: their bucket ratios are points,
  // so every pass's emitter must see them.
  const auto executed = executed_sort(seed);

  const Sec3Results results = harness.run<Sec3Results>(
      [&](std::size_t threads) {
        return compute_all(threads, seed, platforms, het_speeds);
      },
      [&](const Sec3Results& result, util::JsonWriter& json) {
        emit_points(result, executed, json);
      });

  print_tables(results, platforms);

  const auto race = sample_vs_merge(seed);

  return harness.finish([&](util::JsonWriter& json) {
    json.key("executed_sample_sort").begin_array();
    for (const auto& row : executed) {
      json.begin_object();
      json.key("n").value(row.n);
      json.key("p").value(row.p);
      json.key("step1_seconds").value(row.stats.step1_seconds);
      json.key("step2_seconds").value(row.stats.step2_seconds);
      json.key("step3_seconds").value(row.stats.step3_seconds);
      json.end_object();
    }
    json.end_array();
    json.key("executed_sort_race").begin_array();
    for (const auto& row : race) {
      json.begin_object();
      json.key("n").value(row.n);
      json.key("std_sort_seconds").value(row.std_sort_seconds);
      json.key("merge_sort_seconds").value(row.merge_sort_seconds);
      json.key("sample_sort_seconds").value(row.sample_sort_seconds);
      json.end_object();
    }
    json.end_array();
  });
}
