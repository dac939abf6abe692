// servebench: the serving simulator's benchmark program.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--jobs N] [--corrupt 0|1]
//
// --trace 0 generates the workload's stream (several times, for setup_s),
// runs it once untimed as the reference, then repeats timed runs of the
// same stream for S seconds (at least three) on each of min(4, CPUs)
// threads at once, and prints the end-to-end metrics: jobs_per_s (median
// over all runs), setup_s (median), and peak_rss_mib as of the end of the
// reference run. Every run's records are checked and its digest compared
// with the reference's.
//
// --trace 1 runs the layer pass instead (layers.hpp) and prints the
// per-layer metrics.
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}; the exit code is 0 only when every check passed.
// --corrupt 1 damages one record of the reference run after it is
// produced, to prove the checks catch it.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "obs/trace.hpp"
#include "obs/validate.hpp"
#include "report.hpp"
#include "workloads.hpp"

using namespace servebench;

namespace {

constexpr std::uint64_t kDefaultSeed = 20130520;
constexpr std::size_t kMinTimedRuns = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  int trace = 0;
  std::size_t jobs = 0;
  bool corrupt = false;
};

bool parse(int argc, char** argv, Options& options) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) return false;
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    } else {
      return false;
    }
  }
  try {
    for (const auto& [key, value] : flags) {
      if (key == "workload") {
        options.workload = value;
      } else if (key == "seed") {
        options.seed = std::stoull(value);
      } else if (key == "seconds") {
        options.seconds = std::stod(value);
      } else if (key == "trace") {
        options.trace = std::stoi(value);
      } else if (key == "jobs") {
        options.jobs = static_cast<std::size_t>(std::stoull(value));
      } else if (key == "corrupt") {
        options.corrupt = std::stoi(value) != 0;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return (options.trace == 0 || options.trace == 1) && options.seconds > 0.0;
}

/// Worker threads for the timed runs: every CPU, at most four.
std::size_t timed_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

struct RunOutcome {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t failed = 0;
};

template <typename Records>
void corrupt_first(Records& records) {
  if (!records.empty()) {
    records.front().finish = std::numeric_limits<double>::quiet_NaN();
  }
}

/// One run of the workload. For qos_slo_traced the run is the traced
/// workflow: traced server run, critical path, attribution, Chrome export.
/// `reference` adds the checks too costly to repeat: traced equals
/// untraced, and the export validates.
RunOutcome run_once(Workload workload, const std::vector<nldl::online::Job>& jobs,
                    bool reference, bool corrupt) {
  RunOutcome out;
  const Clock::time_point t0 = Clock::now();
  if (workload == Workload::kOnlineSoak) {
    std::vector<nldl::online::JobStats> stats = run_online(jobs);
    out.seconds = seconds_between(t0, Clock::now());
    out.digest = digest(stats);
    if (corrupt) corrupt_first(stats);
    out.failed = failed_records(jobs, stats);
    return out;
  }
  if (workload == Workload::kQosCatalog) {
    std::vector<nldl::qos::JobRecord> records = run_qos(workload, jobs);
    out.seconds = seconds_between(t0, Clock::now());
    out.digest = digest(records);
    if (corrupt) corrupt_first(records);
    out.failed = failed_records(jobs, records);
    return out;
  }

  nldl::obs::TraceRecorder recorder;
  std::vector<nldl::qos::JobRecord> records =
      run_qos(workload, jobs, &recorder);
  const TraceAnalysis analysis = analyze_trace(recorder.events());
  out.seconds = seconds_between(t0, Clock::now());

  out.digest = digest(records);
  if (corrupt) corrupt_first(records);
  out.failed = failed_records(jobs, records) + analysis.blame_failures;
  std::size_t admitted = 0;
  for (const nldl::qos::JobRecord& record : records) admitted += record.admitted;
  const std::size_t blamed = analysis.blamed_jobs;
  out.failed += admitted > blamed ? admitted - blamed : blamed - admitted;
  if (reference) {
    out.failed += differing_records(records, run_qos(workload, jobs));
    if (!nldl::obs::validate_chrome_trace_text(analysis.chrome).ok) {
      ++out.failed;
    }
  }
  return out;
}

int timed_runs(Workload workload, const Options& options, std::size_t jobs) {
  // Setup: stream generation and rate calibration (and, for
  // qos_slo_traced, every job's deadline prediction), repeated.
  const int setups = workload == Workload::kQosSloTraced ? 5 : 15;
  std::vector<double> setup_seconds;
  std::vector<nldl::online::Job> stream;
  for (int i = 0; i < setups; ++i) {
    const Clock::time_point t0 = Clock::now();
    stream = make_stream(workload, options.seed, jobs);
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
  }

  // The reference run warms caches and the allocator; it is checked but
  // not timed. Every timed run must reproduce its digest.
  const RunOutcome reference =
      run_once(workload, stream, true, options.corrupt);
  // The footprint of set-up plus one run; the timed threads below run
  // several copies at once, whose interleaved allocations would make the
  // peak depend on thread timing.
  const double peak_rss = peak_rss_mib();

  // Timed runs on every worker thread at once, each repeating the
  // single-threaded server run on the shared read-only stream. A host
  // neighbour slowing one CPU then moves a share of the samples instead
  // of the median.
  struct Worker {
    std::vector<double> rates;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::exception_ptr error;
  };
  std::vector<Worker> workers(timed_threads());
  {
    std::vector<std::jthread> pool;
    for (Worker& worker : workers) {
      pool.emplace_back([&, &worker = worker] {
        try {
          double measured = 0.0;
          while (measured < options.seconds ||
                 worker.rates.size() < kMinTimedRuns) {
            const RunOutcome run = run_once(workload, stream, false, false);
            measured += run.seconds;
            worker.rates.push_back(static_cast<double>(stream.size()) /
                                   run.seconds);
            worker.attempted += stream.size();
            worker.failed += run.failed;
            if (run.digest != reference.digest) {
              worker.failed += stream.size();
            }
          }
        } catch (...) {
          worker.error = std::current_exception();
        }
      });
    }
  }  // joins every worker
  std::uint64_t attempted = stream.size();
  std::uint64_t failed = reference.failed;
  std::vector<double> rates;
  for (const Worker& worker : workers) {
    if (worker.error) std::rethrow_exception(worker.error);
    rates.insert(rates.end(), worker.rates.begin(), worker.rates.end());
    attempted += worker.attempted;
    failed += worker.failed;
  }

  const std::vector<Metric> metrics{
      {"jobs_per_s", median(rates), "jobs/s"},
      {"setup_s", median(setup_seconds), "s"},
      {"peak_rss_mib", peak_rss, "MiB"},
  };
  std::printf("%s: %zu jobs x %zu timed runs on %zu threads (jobs/s min "
              "%.1f, max %.1f)\n",
              to_string(workload), stream.size(), rates.size(),
              workers.size(), quantile(rates, 0.0), quantile(rates, 1.0));
  print_table(metrics);
  std::printf("  %-34s %16.6g %s\n", "failed_share",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio");
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

int layer_runs(Workload workload, const Options& options, std::size_t jobs) {
  const std::vector<nldl::online::Job> stream =
      make_stream(workload, options.seed, jobs);
  const LayerResult result = layer_pass(workload, stream, options.seconds);
  std::printf("%s layer pass: %zu jobs x %zu passes (span cost %.0f ns, "
              "taken out of every span)\n",
              to_string(workload), stream.size(), result.passes,
              result.span_cost_ns);
  print_table(result.metrics);
  std::printf("  %-34s %16.6g %s\n", "failed_share",
              static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted),
              "ratio");
  print_result(result.failed == 0, result.attempted, result.failed,
               result.metrics);
  return result.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: servebench --workload online_soak|qos_catalog|"
                 "qos_slo_traced --seed N --seconds S --trace 0|1 "
                 "[--jobs N] [--corrupt 0|1]\n");
    return 2;
  }
  const std::optional<Workload> workload =
      workload_from_string(options.workload);
  if (!workload) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  const std::size_t jobs =
      options.jobs > 0 ? options.jobs : default_jobs(*workload);

  HostRecord host;
  host.workload = to_string(*workload);
  host.seed = options.seed;
  host.seconds = options.seconds;
  host.trace = options.trace;
  host.jobs = jobs;
  host.threads = options.trace == 1 ? 1 : timed_threads();
  print_host(host);
  try {
    return options.trace == 1 ? layer_runs(*workload, options, jobs)
                              : timed_runs(*workload, options, jobs);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "servebench: %s\n", error.what());
    return 1;
  }
}
