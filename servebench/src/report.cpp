#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

namespace servebench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Digest::mix(const unsigned char* bytes, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) noexcept {
  unsigned char bytes[sizeof(double)];
  std::memcpy(bytes, &value, sizeof(double));
  mix(bytes, sizeof(double));
}

void Digest::add(std::uint64_t value) noexcept {
  unsigned char bytes[sizeof(value)];
  std::memcpy(bytes, &value, sizeof(value));
  mix(bytes, sizeof(value));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

SpanLog::SpanLog() : origin_(Clock::now()) {
  // Calibrate the span machinery on empty spans: `inner_` is the part of
  // a span's cost its own interval measures, `total_` its whole cost.
  constexpr std::size_t kProbes = 2000;
  spans_.reserve(kProbes);
  const double before = now();
  for (std::size_t i = 0; i < kProbes; ++i) close(open(0));
  const double after = now();
  std::vector<double> inner;
  for (const Span& span : spans_) inner.push_back(span.seconds());
  inner_ = median(inner);
  total_ = (after - before) / static_cast<double>(kProbes);
  spans_.clear();
}

double SpanLog::net(std::size_t index) const {
  return spans_[index].seconds() - inner_;
}

double SpanLog::now() const { return seconds_between(origin_, Clock::now()); }

std::uint16_t SpanLog::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

std::uint32_t SpanLog::open(std::uint16_t name, std::uint32_t parent,
                            bool duplicate) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.duplicate = duplicate;
  span.start = now();
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::close(std::uint32_t index) { spans_[index].end = now(); }

std::size_t SpanLog::count(std::uint16_t name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [name](const Span& span) { return span.name == name; }));
}

std::vector<double> SpanLog::durations(std::uint16_t name) const {
  std::vector<double> duplicated(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.duplicate && span.parent != Span::kRoot) {
      duplicated[span.parent] += net(i) + total_;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(net(i) - duplicated[i]);
  }
  return out;
}

double SpanLog::duplicate_seconds() const {
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].duplicate) total += net(i);
  }
  return total;
}

double SpanLog::self_seconds(std::uint16_t name) const {
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.name == name) total += net(i);
    if (span.parent != Span::kRoot && spans_[span.parent].name == name) {
      total -= net(i) + total_;
    }
  }
  return total;
}

namespace {

/// JSON number with every digit (17 significant), never NaN/inf.
std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void print_host(const HostRecord& host) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "host: {\"nproc\": %ld, \"hardware_concurrency\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"options\": \"%s\", "
      "\"threads\": %zu, \"workload\": \"%s\", \"seed\": %llu, "
      "\"jobs\": %zu, \"seconds\": %s, \"trace\": %d}\n",
      nproc, std::thread::hardware_concurrency(), SERVEBENCH_COMPILER,
      SERVEBENCH_BUILD_TYPE, SERVEBENCH_NLDL_OPTIONS, host.threads,
      host.workload.c_str(), static_cast<unsigned long long>(host.seed),
      host.jobs, number(host.seconds).c_str(), host.trace);
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-34s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace servebench
