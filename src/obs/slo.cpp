#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/assert.hpp"

namespace nldl::obs {

namespace {

/// Windows must cover a whole number of base windows, at most
/// BurnRateMonitor::kMaxWindows of them; returns the count.
std::size_t window_multiple(double window, double base) {
  NLDL_REQUIRE(window > 0.0, "burn window must be > 0");
  const double ratio = window / base;
  const double rounded = std::round(ratio);
  NLDL_REQUIRE(rounded >= 1.0 && std::fabs(ratio - rounded) < 1e-9,
               "burn windows must be integer multiples of the base window");
  NLDL_REQUIRE(
      rounded <= static_cast<double>(BurnRateMonitor::kMaxWindows),
      "a burn window may span at most 2^16 base windows");
  return static_cast<std::size_t>(rounded);
}

}  // namespace

SloPolicy SloPolicy::paging(double objective, double base) {
  SloPolicy policy;
  policy.objective = objective;
  policy.window = base;
  policy.rules = {{base, 12.0 * base, 14.4}, {6.0 * base, 72.0 * base, 6.0}};
  return policy;
}

BurnRateMonitor::BurnRateMonitor(SloPolicy policy, double horizon)
    : policy_(std::move(policy)) {
  NLDL_REQUIRE(std::isfinite(policy_.window) && policy_.window > 0.0,
               "SLO base window must be finite and > 0");
  NLDL_REQUIRE(std::isfinite(horizon) && horizon >= 0.0,
               "SLO horizon must be finite and >= 0");
  const double count = std::ceil(horizon / policy_.window);
  NLDL_REQUIRE(count <= static_cast<double>(kMaxWindows),
               "SLO horizon spans more than 2^16 base windows");
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(count));
  window_totals_.assign(windows, 0);
  window_misses_.assign(windows, 0);
  NLDL_REQUIRE(policy_.objective > 0.0 && policy_.objective < 1.0,
               "SLO objective must lie in (0, 1)");
  for (const BurnWindow& rule : policy_.rules) {
    const std::size_t fast = window_multiple(rule.fast, policy_.window);
    const std::size_t slow = window_multiple(rule.slow, policy_.window);
    NLDL_REQUIRE(fast <= slow,
                 "a rule's fast window cannot exceed its slow window");
    NLDL_REQUIRE(rule.threshold > 0.0, "burn threshold must be > 0");
  }
}

void BurnRateMonitor::observe(double t, bool missed) {
  NLDL_REQUIRE(!finalized_, "BurnRateMonitor::observe after finalize");
  NLDL_REQUIRE(std::isfinite(t) && t >= 0.0,
               "SLO observation time must be finite and >= 0");
  const std::size_t last = window_totals_.size() - 1;
  const double raw = std::floor(t / policy_.window);
  const std::size_t window = raw >= static_cast<double>(last)
                                 ? last
                                 : static_cast<std::size_t>(raw);
  ++window_totals_[window];
  ++total_;
  if (missed) {
    ++window_misses_[window];
    ++missed_;
  }
}

void BurnRateMonitor::finalize(TraceSink* sink, MetricsRegistry* registry) {
  if (!finalized_) {
    finalized_ = true;
    const std::size_t windows = window_totals_.size();
    const double budget = 1.0 - policy_.objective;

    // Prefix sums over the base windows: jobs_before[i] counts the jobs in
    // windows [0, i), misses_before[i] their misses. A trailing window's
    // counts are then two exact integer differences, the same integers a
    // window-by-window sum gives, so finalize() is linear in the window
    // count whatever the rules span.
    std::vector<std::uint64_t> jobs_before(windows + 1, 0);
    std::vector<std::uint64_t> misses_before(windows + 1, 0);
    for (std::size_t w = 0; w < windows; ++w) {
      jobs_before[w + 1] = jobs_before[w] + window_totals_[w];
      misses_before[w + 1] = misses_before[w] + window_misses_[w];
    }

    // Trailing-window miss rate ending at base window `i`, spanning the
    // last `span` base windows (clamped at the run start).
    const auto burn_at = [&](std::size_t i, std::size_t span) {
      const std::size_t first = i + 1 >= span ? i + 1 - span : 0;
      const std::uint64_t jobs = jobs_before[i + 1] - jobs_before[first];
      const std::uint64_t bad = misses_before[i + 1] - misses_before[first];
      if (jobs == 0) return 0.0;
      return (static_cast<double>(bad) / static_cast<double>(jobs)) / budget;
    };

    for (std::size_t r = 0; r < policy_.rules.size(); ++r) {
      const BurnWindow& rule = policy_.rules[r];
      const std::size_t fast = window_multiple(rule.fast, policy_.window);
      const std::size_t slow = window_multiple(rule.slow, policy_.window);
      bool firing = false;
      for (std::size_t i = 0; i < windows; ++i) {
        const double fast_burn = burn_at(i, fast);
        const double slow_burn = burn_at(i, slow);
        peak_burn_ = std::max(peak_burn_, fast_burn);
        const bool breach =
            fast_burn >= rule.threshold && slow_burn >= rule.threshold;
        if (breach && !firing) {
          Alert alert;
          alert.rule = r;
          alert.time = static_cast<double>(i + 1) * policy_.window;
          alert.fast_burn = fast_burn;
          alert.slow_burn = slow_burn;
          alerts_.push_back(alert);
        }
        firing = breach;
      }
    }
    std::sort(alerts_.begin(), alerts_.end(),
              [](const Alert& a, const Alert& b) {
                if (a.time != b.time) return a.time < b.time;
                return a.rule < b.rule;
              });
  }
  if (sink != nullptr) {
    for (const Alert& alert : alerts_) {
      TraceEvent event;
      event.kind = EventKind::kAlert;
      event.start = alert.time;
      event.end = alert.time;
      event.size = alert.slow_burn;
      event.value = alert.fast_burn;
      sink->record(event);
    }
  }
  if (registry != nullptr) {
    registry->counter("slo.observations") += total_;
    registry->counter("slo.misses") += missed_;
    registry->counter("slo.alerts") += alerts_.size();
    registry->gauge("slo.peak_burn") = peak_burn_;
  }
}

std::string BurnRateMonitor::render() const {
  char line[160];
  std::string out;
  const double miss_rate =
      total_ > 0 ? static_cast<double>(missed_) / static_cast<double>(total_)
                 : 0.0;
  std::snprintf(line, sizeof(line),
                "slo burn-rate: objective %.4g, %zu jobs, %zu misses "
                "(rate %.4g), peak burn %.3g\n",
                policy_.objective, total_, missed_, miss_rate, peak_burn_);
  out += line;
  for (std::size_t r = 0; r < policy_.rules.size(); ++r) {
    const BurnWindow& rule = policy_.rules[r];
    std::size_t fired = 0;
    for (const Alert& alert : alerts_) {
      if (alert.rule == r) ++fired;
    }
    std::snprintf(line, sizeof(line),
                  "  rule %zu: fast %.4gs / slow %.4gs @ burn >= %.3g -> "
                  "%zu alert%s\n",
                  r, rule.fast, rule.slow, rule.threshold, fired,
                  fired == 1 ? "" : "s");
    out += line;
  }
  return out;
}

}  // namespace nldl::obs
