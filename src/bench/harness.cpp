#include "bench/harness.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "util/sweep.hpp"

namespace nldl::bench {

HarnessOptions harness_options_from_args(const util::Args& args) {
  HarnessOptions options;
  options.threads = args.get_count("threads", 0);
  options.repetitions = args.get_count("reps", 1);
  options.warmup = args.get_count("warmup", 0);
  options.json_path = args.get_string("json", "");
  return options;
}

std::string points_text(const std::function<void(util::JsonWriter&)>& emit) {
  std::ostringstream out;
  util::JsonWriter json(out);
  json.begin_array();
  emit(json);
  json.end_array();
  return out.str();
}

Harness::Harness(std::string name, HarnessOptions options)
    : name_(std::move(name)), options_(std::move(options)) {
  NLDL_REQUIRE(!name_.empty(), "bench name must not be empty");
  NLDL_REQUIRE(options_.repetitions >= 1,
               "at least one timed repetition required");
  threads_ = util::resolve_threads(options_.threads);
}

void Harness::config(const std::string& key, const std::string& value) {
  config_.push_back(
      {key, [value](util::JsonWriter& json) { json.value(value); }});
}
void Harness::config(const std::string& key, const char* value) {
  config(key, std::string(value));
}
void Harness::config(const std::string& key, double value) {
  config_.push_back(
      {key, [value](util::JsonWriter& json) { json.value(value); }});
}
void Harness::config(const std::string& key, std::int64_t value) {
  config_.push_back(
      {key, [value](util::JsonWriter& json) { json.value(value); }});
}
void Harness::config(const std::string& key, std::size_t value) {
  config_.push_back(
      {key, [value](util::JsonWriter& json) { json.value(value); }});
}
void Harness::config(const std::string& key, bool value) {
  config_.push_back(
      {key, [value](util::JsonWriter& json) { json.value(value); }});
}

double Harness::items_per_sec_serial() const noexcept {
  return serial_seconds_ > 0.0
             ? static_cast<double>(items_) / serial_seconds_
             : 0.0;
}

double Harness::items_per_sec_parallel() const noexcept {
  return parallel_seconds_ > 0.0
             ? static_cast<double>(items_) / parallel_seconds_
             : 0.0;
}

std::size_t Harness::ru_maxrss_to_bytes(long ru_maxrss,
                                        RssUnit unit) noexcept {
  if (ru_maxrss <= 0) return 0;  // failed/absurd reading, not a real RSS
  const auto raw = static_cast<std::size_t>(ru_maxrss);
  if (unit == RssUnit::kBytes) return raw;
  // KiB -> bytes; clamp instead of wrapping on a (pathological) overflow.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (raw > kMax / 1024U) return 0;
  return raw * 1024U;
}

std::size_t Harness::peak_rss_bytes() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return ru_maxrss_to_bytes(usage.ru_maxrss, RssUnit::kBytes);
#else
  return ru_maxrss_to_bytes(usage.ru_maxrss, RssUnit::kKibibytes);
#endif
#else
  return 0;
#endif
}

int Harness::finish(
    const std::function<void(util::JsonWriter&)>& emit_measured) {
  NLDL_REQUIRE(static_cast<bool>(emit_reference_),
               "Harness::finish() before run()");

  const std::size_t peak_rss = peak_rss_bytes();
  std::printf("\nrunner[%s]: serial %.3fs | %zu threads %.3fs | "
              "bit-identical: %s\n",
              name_.c_str(), serial_seconds_, threads_, parallel_seconds_,
              bit_identical_ ? "yes" : "NO (runner bug!)");
  if (items_ > 0) {
    std::printf("runner[%s]: %zu items | %.0f items/s serial | %.0f "
                "items/s parallel\n",
                name_.c_str(), items_, items_per_sec_serial(),
                items_per_sec_parallel());
  }
  if (peak_rss > 0) {
    std::printf("runner[%s]: peak RSS %.1f MiB\n", name_.c_str(),
                static_cast<double>(peak_rss) / (1024.0 * 1024.0));
  }

  const std::string path =
      options_.json_path.empty() ? "BENCH_" + name_ + ".json"
                                 : options_.json_path;
  bool written = false;
  {
    std::ofstream out(path);
    util::JsonWriter json(out);
    json.begin_object();
    json.key("bench").value(name_);

    // The deterministic payload: a pure function of the experiment.
    // Reproduction checks (tools/trace_check --bench-diff, CI) compare
    // exactly this subtree between runs.
    json.key("deterministic").begin_object();
    json.key("config").begin_object();
    for (const ConfigEntry& entry : config_) {
      json.key(entry.key);
      entry.emit(json);
    }
    json.end_object();
    if (items_ > 0) json.key("items").value(items_);
    json.key("parallel_bit_identical").value(bit_identical_);
    if (!metrics_.empty()) {
      json.key("metrics");
      metrics_.write_json(json);
    }
    json.key("points").begin_array();
    emit_reference_(json);
    json.end_array();
    json.end_object();

    // The measured sidecar: wall clock and memory — differs run to run.
    json.key("measured").begin_object();
    json.key("threads").value(threads_);
    json.key("repetitions").value(options_.repetitions);
    json.key("wall_time_serial_s").value(serial_seconds_);
    json.key("wall_time_parallel_s").value(parallel_seconds_);
    if (items_ > 0) {
      json.key("items_per_sec_serial").value(items_per_sec_serial());
      json.key("items_per_sec_parallel").value(items_per_sec_parallel());
    }
    json.key("peak_rss_bytes").value(peak_rss);
    if (emit_measured) emit_measured(json);
    json.end_object();

    json.end_object();
    NLDL_ASSERT(json.complete(), "bench JSON left scopes open");
    out.flush();
    written = static_cast<bool>(out);
  }
  if (written) {
    std::printf("JSON written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
  return bit_identical_ && written ? 0 : 1;
}

}  // namespace nldl::bench
