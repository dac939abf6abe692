// Benchmark harness: the shared protocol of every bench/ driver.
//
// A driver describes its experiment as "run the whole sweep at a given
// thread count and return the results"; the harness then
//
//   1. runs optional untimed warmup passes,
//   2. times `repetitions` serial passes (threads = 1) and keeps the best
//      wall time and the first pass's results as the reference,
//   3. times `repetitions` parallel passes (the configured width) and
//      requires every repeated serial pass and every parallel pass to
//      emit the reference pass's "points" text byte for byte — the text
//      the payload publishes, so the runtime proof that the util::Sweep
//      contract (pre-split RNG sub-streams + ordered reduction) held
//      covers exactly what CI diffs,
//   4. streams a machine-readable BENCH_<name>.json via util::JsonWriter,
//      split into two top-level objects:
//
//        "deterministic": a pure function of the experiment — config
//            metadata, the item count, the self-check verdict, the
//            driver's obs::MetricsRegistry snapshot, and the per-point
//            "points" array. Running the same bench twice must reproduce
//            this subtree BITWISE (tools/trace_check --bench-diff checks
//            exactly it, and CI runs that comparison);
//        "measured": the wall-clock sidecar — thread count, serial /
//            parallel wall times, items/sec, peak RSS, and any wall times
//            the driver gathered itself. Expected to differ between runs;
//            never compared.
//
// and turns the self-check into the process exit code, so CI fails loudly
// on any determinism regression. All wall-clock reads go through
// bench::WallClock (bench/profile.hpp) — the sim domain never touches a
// real clock.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/profile.hpp"
#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace nldl::bench {

struct HarnessOptions {
  /// Parallel width for the checked pass: 0 = one per hardware thread.
  std::size_t threads = 0;
  /// Timed repetitions of each variant (best wall time is reported).
  std::size_t repetitions = 1;
  /// Untimed warmup passes before the serial timing.
  std::size_t warmup = 0;
  /// Output path; empty = BENCH_<name>.json in the working directory.
  std::string json_path;
};

/// Read the shared harness flags: --threads=T (0 = hardware, default),
/// --reps=R, --warmup=W, --json=path.
[[nodiscard]] HarnessOptions harness_options_from_args(
    const util::Args& args);

/// The text `emit` writes as the elements of a JSON array: what the
/// self-check compares between passes. Drivers compare a traced cell with
/// its untraced twin the same way.
[[nodiscard]] std::string points_text(
    const std::function<void(util::JsonWriter&)>& emit);

class Harness {
 public:
  Harness(std::string name, HarnessOptions options);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Resolved parallel width (never 0).
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }
  [[nodiscard]] std::size_t repetitions() const noexcept {
    return options_.repetitions;
  }

  /// Declare how many work items one full pass processes (jobs, cells,
  /// trials — the driver's unit of throughput). When set, finish()
  /// reports items/sec for the serial and parallel passes. Call any time
  /// before finish().
  void items(std::size_t count) noexcept { items_ = count; }
  [[nodiscard]] std::size_t items() const noexcept { return items_; }
  /// Items per second of the best serial / parallel pass (0 until run()
  /// with a non-zero item count).
  [[nodiscard]] double items_per_sec_serial() const noexcept;
  [[nodiscard]] double items_per_sec_parallel() const noexcept;

  /// Peak resident set size of this process in bytes (getrusage), 0 where
  /// unsupported. A process-wide high-water mark — sampled by finish()
  /// after all passes, so it bounds the benches' working set.
  [[nodiscard]] static std::size_t peak_rss_bytes() noexcept;

  /// Normalize a raw getrusage ru_maxrss reading to bytes. POSIX leaves
  /// the unit unspecified and the two platforms we run on disagree:
  /// Linux reports KiB, macOS reports bytes — a silent 1024x discrepancy
  /// in BENCH_*.json artifacts if ever read unconverted. Pulled out of
  /// peak_rss_bytes() so the conversion itself is unit-testable on any
  /// host (tests/test_harness.cpp covers both conventions); negative or
  /// overflowing readings clamp to 0 rather than wrapping.
  enum class RssUnit { kKibibytes /* Linux */, kBytes /* macOS */ };
  [[nodiscard]] static std::size_t ru_maxrss_to_bytes(long ru_maxrss,
                                                      RssUnit unit) noexcept;

  /// Record a config key/value, emitted (in insertion order) into the
  /// JSON "config" object. Call before finish().
  void config(const std::string& key, const std::string& value);
  void config(const std::string& key, const char* value);
  void config(const std::string& key, double value);
  void config(const std::string& key, std::int64_t value);
  void config(const std::string& key, std::size_t value);
  void config(const std::string& key, bool value);
  void config(const std::string& key, int value) {
    config(key, static_cast<std::int64_t>(value));
  }

  /// Run the protocol: warmup, timed serial passes, timed parallel passes,
  /// self-check. `run_sweep(threads)` must evaluate the full experiment at
  /// the given thread count; `emit_points(result, json)` writes one pass's
  /// "points" array elements. Every pass's points text must equal the
  /// first serial pass's byte for byte, and finish() publishes that
  /// reference. Returns the reference result (the one every table should
  /// be derived from).
  template <typename Result>
  Result run(const std::function<Result(std::size_t)>& run_sweep,
             const std::function<void(const Result&, util::JsonWriter&)>&
                 emit_points) {
    const auto text_of = [&emit_points](const Result& result) {
      return points_text(
          [&](util::JsonWriter& json) { emit_points(result, json); });
    };
    for (std::size_t i = 0; i < options_.warmup; ++i) {
      (void)run_sweep(1);
    }

    Result reference{};
    std::string reference_text;
    serial_seconds_ = -1.0;
    for (std::size_t rep = 0; rep < options_.repetitions; ++rep) {
      const double start = WallClock::now();
      Result result = run_sweep(1);
      const double elapsed = WallClock::now() - start;
      if (rep == 0) {
        reference_text = text_of(result);
        reference = std::move(result);
      } else if (text_of(result) != reference_text) {
        bit_identical_ = false;  // serial runs disagree: not deterministic
      }
      if (serial_seconds_ < 0.0 || elapsed < serial_seconds_) {
        serial_seconds_ = elapsed;
      }
    }

    parallel_seconds_ = -1.0;
    for (std::size_t rep = 0; rep < options_.repetitions; ++rep) {
      const double start = WallClock::now();
      const Result result = run_sweep(threads_);
      const double elapsed = WallClock::now() - start;
      if (text_of(result) != reference_text) bit_identical_ = false;
      if (parallel_seconds_ < 0.0 || elapsed < parallel_seconds_) {
        parallel_seconds_ = elapsed;
      }
    }
    emit_reference_ = [reference, emit_points](util::JsonWriter& json) {
      emit_points(reference, json);
    };
    return reference;
  }

  [[nodiscard]] bool bit_identical() const noexcept { return bit_identical_; }
  [[nodiscard]] double serial_seconds() const noexcept {
    return serial_seconds_;
  }
  [[nodiscard]] double parallel_seconds() const noexcept {
    return parallel_seconds_;
  }

  /// Deterministic run metrics (obs/metrics.hpp): the driver folds its
  /// reference pass's counters/gauges/quantiles in here and finish()
  /// snapshots them into the deterministic payload's "metrics" object
  /// (omitted while empty).
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// Print the runner summary line, write BENCH_<name>.json (the
  /// deterministic payload + measured sidecar described in the file
  /// comment), and return the process exit code: 0 iff the self-check
  /// passed and the JSON landed on disk. The "points" array is the
  /// reference pass's, as run() compared it; `emit_measured`, when given,
  /// appends extra keys to the measured sidecar (wall times the driver
  /// gathered itself — it must not emit deterministic data there).
  int finish(const std::function<void(util::JsonWriter&)>& emit_measured =
                 {});

 private:
  struct ConfigEntry {
    std::string key;
    std::function<void(util::JsonWriter&)> emit;  ///< writes the typed value
  };

  std::string name_;
  HarnessOptions options_;
  std::size_t threads_ = 1;
  std::size_t items_ = 0;
  std::vector<ConfigEntry> config_;
  obs::MetricsRegistry metrics_;
  /// Writes the reference pass's points; set by run().
  std::function<void(util::JsonWriter&)> emit_reference_;
  bool bit_identical_ = true;
  double serial_seconds_ = 0.0;
  double parallel_seconds_ = 0.0;
};

}  // namespace nldl::bench
