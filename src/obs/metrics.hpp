// Ordered named metrics registry — the aggregate side of observability.
//
// Where obs/trace.hpp records *when* things happened, the registry
// accumulates *how much*: named counters (monotone integer tallies) and
// gauges (last-write doubles). The servers take an optional registry and
// account their replay machinery (replay.engine_events, replay.replays,
// replay.busy_periods) and qos outcomes (qos.admitted, qos.preemptions,
// qos.restart_time_s, ...) into it.
//
// Determinism rules of the house apply: entries live in a vector in
// first-touch order with a std::map index (no unordered containers), and
// write_json emits them in that stable order so registry snapshots
// embedded in bench JSON reproduce bitwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nldl::util {
class JsonWriter;
}  // namespace nldl::util

namespace nldl::obs {

/// Insertion-ordered registry of counters and gauges.
/// Accessors create the entry on first use; repeated lookups return the
/// same slot. Names are free-form; the convention is dotted lowercase
/// ("replay.engine_events"). Not thread-safe — one registry per
/// server/bench run.
class MetricsRegistry {
 public:
  /// Monotone integer tally (callers may also add deltas directly).
  [[nodiscard]] std::uint64_t& counter(std::string_view name);

  /// Last-write-wins double (also usable as a += accumulator).
  [[nodiscard]] double& gauge(std::string_view name);

  /// Read-only lookups; throw util::PreconditionError when the entry is
  /// missing or has a different type.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;

  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Emit one flat JSON object, entries in first-touch order. Counters
  /// emit as integers, gauges as numbers.
  void write_json(util::JsonWriter& json) const;

  /// Entry names in first-touch order (tests / table rendering).
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  enum class Type : std::uint8_t { kCounter, kGauge };

  struct Entry {
    std::string name;
    Type type = Type::kCounter;
    std::uint64_t count = 0;
    double gauge = 0.0;
  };

  Entry& slot(std::string_view name, Type type);
  [[nodiscard]] const Entry* find(std::string_view name) const;

  std::vector<Entry> entries_;
  std::map<std::string, std::size_t, std::less<>> index_;
};

}  // namespace nldl::obs
