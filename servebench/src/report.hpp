// Measurement plumbing shared by the timed runs and the layer pass: wall
// clock, spans kept in memory, order statistics, record digests, peak
// RSS, and the result lines the benchmark prints.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Bitwise equality: the comparison every determinism check here uses.
[[nodiscard]] inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// FNV-1a over the raw bytes of the values fed to it.
class Digest {
 public:
  void add(double value) noexcept;
  void add(std::uint64_t value) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void mix(const unsigned char* bytes, std::size_t n) noexcept;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// One timed call into a layer, on the wall clock. `parent` indexes the
/// enclosing span in the same log, or kRoot for a direct child of the
/// workload run. `duplicate` marks a call the layer pass makes a second
/// time, outside the library, to time a layer nested inside a public call
/// it cannot open (see SpanLog::duplicate_seconds).
struct Span {
  static constexpr std::uint32_t kRoot = 0xffffffffU;
  std::uint16_t name = 0;
  bool duplicate = false;
  std::uint32_t parent = kRoot;
  double start = 0.0;
  double end = 0.0;

  [[nodiscard]] double seconds() const noexcept { return end - start; }
};

/// Spans of one layer pass, kept in memory. Names are interned. The
/// constructor times empty spans; every duration the log reports is net
/// of that measured span cost (a child's whole cost is taken out of its
/// parent's self time), so sub-microsecond calls are not inflated by the
/// clock reads around them.
class SpanLog {
 public:
  SpanLog();

  [[nodiscard]] std::uint16_t intern(std::string_view name);
  /// Open a span now; returns its index for close().
  std::uint32_t open(std::uint16_t name, std::uint32_t parent = Span::kRoot,
                     bool duplicate = false);
  void close(std::uint32_t index);

  [[nodiscard]] std::size_t count(std::uint16_t name) const;
  /// Durations in seconds of every span named `name`, in call order, net
  /// of duplicate calls made inside it (the time the call itself took).
  [[nodiscard]] std::vector<double> durations(std::uint16_t name) const;
  /// Σ duration of every duplicate span.
  [[nodiscard]] double duplicate_seconds() const;
  /// Σ self time of the spans named `name`: each span's duration minus
  /// the part its direct children cover.
  [[nodiscard]] double self_seconds(std::uint16_t name) const;

  /// Measured whole cost of one empty span.
  [[nodiscard]] double span_seconds() const noexcept { return total_; }

 private:
  [[nodiscard]] double now() const;
  /// Duration of span `index` net of the span cost inside it.
  [[nodiscard]] double net(std::size_t index) const;

  Clock::time_point origin_;
  double inner_ = 0.0;
  double total_ = 0.0;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::uint16_t name,
             std::uint32_t parent = Span::kRoot, bool duplicate = false)
      : log_(log), index_(log.open(name, parent, duplicate)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }

 private:
  SpanLog& log_;
  std::uint32_t index_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Where the numbers came from: printed once per run, before the result.
struct HostRecord {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::size_t jobs = 0;
  std::size_t threads = 1;
};
void print_host(const HostRecord& host);

/// A human-readable table of the metrics (stdout, before the result).
void print_table(const std::vector<Metric>& metrics);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace servebench
