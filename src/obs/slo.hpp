// Multi-window SLO burn-rate alerting over the deadline-miss budget —
// the forward-looking side of observability.
//
// The qos server's SLO is "at most (1 − objective) of admitted jobs miss
// their deadline". The classic burn-rate construction (SRE workbook
// ch. 5) watches how fast the error budget is being consumed:
//
//   burn(window) = miss_rate(window) / (1 − objective)
//
// burn == 1 spends exactly the budget over the SLO period; burn == 14.4
// exhausts a 30-day budget in 2 days. One window is a compromise between
// detection speed and flap resistance, so each alerting rule pairs a
// FAST window (quick detection, noisy) with a SLOW window (confirmation)
// and fires only when BOTH burn above the threshold — short blips die in
// the slow window, long regressions trip it within the fast one.
//
// Everything here runs on the simulated clock: jobs and misses are
// counted per fixed-width base window, so alerting is deterministic: the
// same trace yields the same alerts, bit for bit. observe() accepts
// finish events in any order (the servers finalize jobs out of time order
// under concurrency); finalize() then evaluates window-by-window, emits
// each alert's rising edge as a kAlert trace instant, and accounts fired
// alerts and peak burn into the MetricsRegistry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace nldl::obs {

/// One fast/slow alerting rule. Windows are expressed in seconds of
/// simulated time and must be integer multiples of the monitor's base
/// window so window sums align exactly.
struct BurnWindow {
  double fast = 0.0;       ///< detection window (seconds)
  double slow = 0.0;       ///< confirmation window (seconds, >= fast)
  double threshold = 1.0;  ///< fire when both windows burn >= this
};

/// The SLO plus its alerting rules.
struct SloPolicy {
  /// Target success fraction in (0, 1); the error budget is 1 − objective.
  double objective = 0.99;
  /// Base aggregation window (seconds); all rule windows are multiples.
  double window = 10.0;
  std::vector<BurnWindow> rules;

  /// The standard paging pair scaled to simulated time: with base window
  /// b, {b, 12b} at burn 14.4 and {6b, 72b} at burn 6 — the SRE
  /// workbook's 5m/1h and 30m/6h pages with b = 5 minutes.
  [[nodiscard]] static SloPolicy paging(double objective, double base);
};

/// Deterministic multi-window burn-rate evaluation over one run.
class BurnRateMonitor {
 public:
  /// Most base windows a monitor keeps, and most base windows one rule
  /// window may span: 2^16, far above the 72 the benches and
  /// nldl_trace_check use. It keeps every window count inside
  /// std::size_t and the two per-window count vectors at 1 MiB;
  /// finalize() is linear in the window count (prefix sums), so the
  /// bound is not a time limit.
  static constexpr std::size_t kMaxWindows = std::size_t{1} << 16;

  /// `horizon` is the simulated span covered, rounded up to a whole
  /// number of base windows (at least one, at most kMaxWindows);
  /// observations past it fold into the last base window. The base
  /// window must be finite and > 0, the horizon finite and >= 0.
  BurnRateMonitor(SloPolicy policy, double horizon);

  /// Record one job outcome at simulated time `t` (its finish, finite and
  /// >= 0): `missed` is true when the job finished past its deadline. Any
  /// time order.
  void observe(double t, bool missed);

  /// One fired alert (the rising edge of a rule's both-windows breach).
  struct Alert {
    std::size_t rule = 0;   ///< index into policy().rules
    double time = 0.0;      ///< end of the base window that tripped it
    double fast_burn = 0.0;
    double slow_burn = 0.0;
  };

  /// Evaluate every rule window-by-window. Idempotent; call after the
  /// run. When `sink` is non-null each alert is also emitted as a
  /// kAlert instant (value = fast-window burn); when `registry` is
  /// non-null, slo.alerts / slo.observations / slo.misses counters and
  /// the slo.peak_burn gauge are accounted.
  void finalize(TraceSink* sink = nullptr, MetricsRegistry* registry = nullptr);

  [[nodiscard]] const SloPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] const std::vector<Alert>& alerts() const noexcept {
    return alerts_;
  }
  /// Highest fast-window burn seen across all rules (0 before finalize
  /// or when nothing was observed).
  [[nodiscard]] double peak_burn() const noexcept { return peak_burn_; }
  [[nodiscard]] std::size_t observations() const noexcept { return total_; }
  [[nodiscard]] std::size_t misses() const noexcept { return missed_; }

  /// One line per rule: windows, threshold, alert count, peak burn.
  [[nodiscard]] std::string render() const;

 private:
  SloPolicy policy_;
  /// Jobs and misses per base window [i·window, (i+1)·window).
  std::vector<std::uint64_t> window_totals_;
  std::vector<std::uint64_t> window_misses_;
  std::vector<Alert> alerts_;
  double peak_burn_ = 0.0;
  std::size_t total_ = 0;
  std::size_t missed_ = 0;
  bool finalized_ = false;
};

}  // namespace nldl::obs
