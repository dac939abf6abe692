// Tests for obs::BurnRateMonitor (multi-window SLO burn-rate alerting):
// base-window addressing and clamping, rising-edge alert semantics,
// determinism, the kAlert / registry side channels of finalize(), and
// finalize()'s prefix sums against window-by-window sums.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/validate.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nldl {
namespace {

// --- BurnRateMonitor ---------------------------------------------------------

obs::SloPolicy tight_policy() {
  obs::SloPolicy policy;
  policy.objective = 0.9;  // budget = 0.1
  policy.window = 10.0;
  policy.rules = {{10.0, 20.0, 2.0}};
  return policy;
}

TEST(BurnRate, PolicyValidation) {
  // Non-multiple windows are rejected.
  obs::SloPolicy bad = tight_policy();
  bad.rules = {{15.0, 20.0, 2.0}};
  EXPECT_THROW(obs::BurnRateMonitor(bad, 100.0), util::PreconditionError);
  // Fast window above the slow window is rejected.
  bad.rules = {{20.0, 10.0, 2.0}};
  EXPECT_THROW(obs::BurnRateMonitor(bad, 100.0), util::PreconditionError);
  // Objective outside (0, 1) is rejected.
  obs::SloPolicy off = tight_policy();
  off.objective = 1.0;
  EXPECT_THROW(obs::BurnRateMonitor(off, 100.0), util::PreconditionError);

  const obs::SloPolicy paging = obs::SloPolicy::paging(0.99, 5.0);
  EXPECT_EQ(paging.window, 5.0);
  ASSERT_EQ(paging.rules.size(), 2u);
  EXPECT_EQ(paging.rules[0].fast, 5.0);
  EXPECT_EQ(paging.rules[0].slow, 60.0);
  EXPECT_EQ(paging.rules[0].threshold, 14.4);
  EXPECT_EQ(paging.rules[1].fast, 30.0);
  EXPECT_EQ(paging.rules[1].slow, 360.0);
  // The standard pair always constructs, whatever the base.
  obs::BurnRateMonitor monitor(paging, 360.0);
  monitor.finalize();
  EXPECT_TRUE(monitor.alerts().empty());
}

TEST(BurnRate, WindowCountsStayWithinTheBound) {
  // Both window counts are casts of a double ratio to std::size_t. A
  // horizon of 1e300 base windows of 1e-300 is an infinite ratio, 1e10
  // over 1e-10 is 1e20 (past std::size_t), and 1e12 windows would ask for
  // 16 TB of counts: each is a PreconditionError, as is one window past
  // the bound, while the bound itself constructs.
  constexpr double bound =
      static_cast<double>(obs::BurnRateMonitor::kMaxWindows);
  static_assert(obs::BurnRateMonitor::kMaxWindows >= 900 * 72);
  for (const auto& [base, horizon] :
       {std::pair<double, double>{1e-300, 1e300}, {1e-10, 1e10},
        {1.0, 1e12}, {1.0, bound + 1.0}}) {
    SCOPED_TRACE(horizon);
    EXPECT_THROW(obs::BurnRateMonitor(obs::SloPolicy::paging(0.95, base),
                                      horizon),
                 util::PreconditionError);
  }
  obs::SloPolicy policy;
  policy.window = 1.0;
  policy.rules = {{1.0, 1.0, 2.0}};
  obs::BurnRateMonitor at_bound(policy, bound);
  at_bound.observe(bound - 0.5, true);
  at_bound.finalize();
  ASSERT_EQ(at_bound.alerts().size(), 1u);
  EXPECT_EQ(at_bound.alerts()[0].time, bound);  // the last window's end

  // A rule window is cast the same way, whatever the horizon.
  for (const double slow : {bound + 1.0, 1e20, 1e300}) {
    SCOPED_TRACE(slow);
    policy.rules = {{1.0, slow, 2.0}};
    EXPECT_THROW(obs::BurnRateMonitor(policy, 10.0), util::PreconditionError);
  }
  policy.rules = {{1.0, bound, 2.0}};
  obs::BurnRateMonitor widest(policy, 10.0);
  widest.finalize();
}

TEST(BurnRate, BaseWindowAddressingAndClamping) {
  // Window 10 over horizon 35: ceil(35 / 10) = 4 base windows. A
  // one-window rule at burn 1 fires at the end of every window holding a
  // miss that follows a window without one, so alert times name windows.
  obs::SloPolicy policy;
  policy.objective = 0.9;
  policy.window = 10.0;
  policy.rules = {{10.0, 10.0, 1.0}};
  obs::BurnRateMonitor monitor(policy, 35.0);
  monitor.observe(0.0, true);     // the first window
  monitor.observe(1000.0, true);  // far past the horizon: the last window
  monitor.finalize();
  ASSERT_EQ(monitor.alerts().size(), 2u);
  EXPECT_EQ(monitor.alerts()[0].time, 10.0);
  EXPECT_EQ(monitor.alerts()[1].time, 40.0);

  // Horizon 0 still yields one window, which takes every observation.
  obs::BurnRateMonitor single(policy, 0.0);
  single.observe(1000.0, true);
  single.finalize();
  ASSERT_EQ(single.alerts().size(), 1u);
  EXPECT_EQ(single.alerts()[0].time, 10.0);

  const double inf = std::numeric_limits<double>::infinity();
  obs::BurnRateMonitor open(policy, 35.0);
  EXPECT_THROW(open.observe(-1.0, false), util::PreconditionError);
  EXPECT_THROW(open.observe(inf, false), util::PreconditionError);
  EXPECT_THROW(obs::BurnRateMonitor(policy, -1.0), util::PreconditionError);
  EXPECT_THROW(obs::BurnRateMonitor(policy, inf), util::PreconditionError);
  for (const double window :
       {0.0, inf, std::numeric_limits<double>::quiet_NaN()}) {
    obs::SloPolicy bad = policy;
    bad.window = window;
    EXPECT_THROW(obs::BurnRateMonitor(bad, 35.0), util::PreconditionError);
  }
}

TEST(BurnRate, RisingEdgeFiresOncePerBreachRun) {
  // budget 0.1, threshold 2 → fires when both trailing windows miss at
  // a rate >= 0.2. Windows 0-1 healthy, 2-4 bad, 5 healthy again.
  obs::BurnRateMonitor monitor(tight_policy(), 60.0);
  for (std::size_t w = 0; w < 6; ++w) {
    const bool bad = w >= 2 && w <= 4;
    const double t = 10.0 * static_cast<double>(w) + 5.0;
    for (int i = 0; i < 10; ++i) {
      monitor.observe(t, bad && i < 5);  // 50% misses in bad windows
    }
  }
  monitor.finalize();
  EXPECT_EQ(monitor.observations(), 60u);
  EXPECT_EQ(monitor.misses(), 15u);
  // One rising edge only: window 2 trips both windows (fast burn 5,
  // trailing-20s burn 2.5) and the breach holds through windows 3-4
  // without re-firing.
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].rule, 0u);
  EXPECT_EQ(monitor.alerts()[0].time, 30.0);  // window 2's end
  EXPECT_GE(monitor.alerts()[0].fast_burn, 2.0);
  EXPECT_GE(monitor.alerts()[0].slow_burn, 2.0);
  EXPECT_DOUBLE_EQ(monitor.peak_burn(), 5.0);  // 0.5 miss rate / 0.1 budget

  // Finalize is idempotent and observe-after-finalize is rejected.
  monitor.finalize();
  EXPECT_EQ(monitor.alerts().size(), 1u);
  EXPECT_THROW(monitor.observe(1.0, false), util::PreconditionError);

  const std::string report = monitor.render();
  EXPECT_NE(report.find("slo burn-rate"), std::string::npos);
  EXPECT_NE(report.find("1 alert"), std::string::npos);
}

TEST(BurnRate, ShortBlipDiesInTheSlowWindow) {
  // One bad fast window surrounded by health: the fast burn spikes but
  // the 20 s confirmation window stays under threshold → no alert.
  obs::BurnRateMonitor monitor(tight_policy(), 60.0);
  for (std::size_t w = 0; w < 6; ++w) {
    const bool bad = w == 3;
    const double t = 10.0 * static_cast<double>(w) + 5.0;
    for (int i = 0; i < 10; ++i) {
      monitor.observe(t, bad && i < 3);  // 30% misses, one window only
    }
  }
  monitor.finalize();
  EXPECT_TRUE(monitor.alerts().empty());
  EXPECT_DOUBLE_EQ(monitor.peak_burn(), 3.0);  // the blip still registers
}

TEST(BurnRate, ObservationOrderDoesNotMatter) {
  const auto feed = [](obs::BurnRateMonitor& monitor, bool reversed) {
    std::vector<std::pair<double, bool>> events;
    for (int i = 0; i < 40; ++i) {
      events.emplace_back(1.5 * i, i % 3 == 0);
    }
    if (reversed) {
      std::vector<std::pair<double, bool>> flipped(events.rbegin(),
                                                   events.rend());
      events = flipped;
    }
    for (const auto& [t, miss] : events) monitor.observe(t, miss);
    monitor.finalize();
  };
  obs::BurnRateMonitor forward(tight_policy(), 60.0);
  obs::BurnRateMonitor backward(tight_policy(), 60.0);
  feed(forward, false);
  feed(backward, true);
  ASSERT_EQ(forward.alerts().size(), backward.alerts().size());
  for (std::size_t i = 0; i < forward.alerts().size(); ++i) {
    EXPECT_EQ(forward.alerts()[i].time, backward.alerts()[i].time);
    EXPECT_EQ(forward.alerts()[i].fast_burn, backward.alerts()[i].fast_burn);
  }
  EXPECT_EQ(forward.peak_burn(), backward.peak_burn());
}

TEST(BurnRate, FinalizeEmitsAlertsAndAccountsRegistry) {
  obs::BurnRateMonitor monitor(tight_policy(), 30.0);
  for (int i = 0; i < 30; ++i) {
    monitor.observe(static_cast<double>(i), i % 2 == 0);  // 50% misses
  }
  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  monitor.finalize(&recorder, &registry);
  ASSERT_FALSE(monitor.alerts().empty());

  const auto alerts = recorder.of_kind(obs::EventKind::kAlert);
  ASSERT_EQ(alerts.size(), monitor.alerts().size());
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    EXPECT_EQ(alerts[i].start, monitor.alerts()[i].time);
    EXPECT_EQ(alerts[i].end, monitor.alerts()[i].time);
    EXPECT_EQ(alerts[i].value, monitor.alerts()[i].fast_burn);
    EXPECT_EQ(alerts[i].size, monitor.alerts()[i].slow_burn);
  }
  EXPECT_EQ(registry.counter_value("slo.observations"), 30u);
  EXPECT_EQ(registry.counter_value("slo.misses"), 15u);
  EXPECT_EQ(registry.counter_value("slo.alerts"), monitor.alerts().size());
  EXPECT_EQ(registry.gauge_value("slo.peak_burn"), monitor.peak_burn());

  // The emitted instants export into a validating Chrome trace.
  std::ostringstream out;
  obs::ChromeTraceOptions options;
  obs::write_chrome_trace(out, recorder.events(), options);
  const obs::ValidationResult result =
      obs::validate_chrome_trace_text(out.str());
  EXPECT_TRUE(result) << result.error;
  EXPECT_NE(out.str().find("\"alert\""), std::string::npos);
}

/// Test-local reference: finalize()'s window-by-window evaluation as it
/// was before prefix sums, every trailing window summed from scratch,
/// over the same base-window addressing as observe().
struct ReferenceBurn {
  std::vector<obs::BurnRateMonitor::Alert> alerts;
  double peak_burn = 0.0;
};

ReferenceBurn reference_burn(
    const obs::SloPolicy& policy, double horizon,
    const std::vector<std::pair<double, bool>>& observations) {
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(horizon / policy.window)));
  std::vector<std::uint64_t> totals(windows, 0);
  std::vector<std::uint64_t> misses(windows, 0);
  for (const auto& [t, missed] : observations) {
    const double raw = std::floor(t / policy.window);
    const std::size_t w = raw >= static_cast<double>(windows - 1)
                              ? windows - 1
                              : static_cast<std::size_t>(raw);
    ++totals[w];
    if (missed) ++misses[w];
  }
  const double budget = 1.0 - policy.objective;
  const auto burn_at = [&](std::size_t i, std::size_t span) {
    const std::size_t first = i + 1 >= span ? i + 1 - span : 0;
    std::uint64_t jobs = 0;
    std::uint64_t bad = 0;
    for (std::size_t w = first; w <= i; ++w) {
      jobs += totals[w];
      bad += misses[w];
    }
    if (jobs == 0) return 0.0;
    return (static_cast<double>(bad) / static_cast<double>(jobs)) / budget;
  };
  ReferenceBurn out;
  for (std::size_t r = 0; r < policy.rules.size(); ++r) {
    const obs::BurnWindow& rule = policy.rules[r];
    const auto fast =
        static_cast<std::size_t>(std::round(rule.fast / policy.window));
    const auto slow =
        static_cast<std::size_t>(std::round(rule.slow / policy.window));
    bool firing = false;
    for (std::size_t i = 0; i < windows; ++i) {
      const double fast_burn = burn_at(i, fast);
      const double slow_burn = burn_at(i, slow);
      out.peak_burn = std::max(out.peak_burn, fast_burn);
      const bool breach =
          fast_burn >= rule.threshold && slow_burn >= rule.threshold;
      if (breach && !firing) {
        obs::BurnRateMonitor::Alert alert;
        alert.rule = r;
        alert.time = static_cast<double>(i + 1) * policy.window;
        alert.fast_burn = fast_burn;
        alert.slow_burn = slow_burn;
        out.alerts.push_back(alert);
      }
      firing = breach;
    }
  }
  std::sort(out.alerts.begin(), out.alerts.end(),
            [](const auto& a, const auto& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.rule < b.rule;
            });
  return out;
}

TEST(BurnRate, PrefixSumsMatchTheWindowByWindowSums) {
  // Generated bursty streams over rule shapes that stress the trailing
  // windows: fast == slow, a rule spanning every base window, and a
  // horizon shorter than the rule. Every alert and the peak burn must
  // carry the reference's bits.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  util::Rng rng(20261018);
  std::size_t fired = 0;
  for (int stream = 0; stream < 60; ++stream) {
    obs::SloPolicy policy;
    policy.objective = stream % 3 == 0 ? 0.9 : (stream % 3 == 1 ? 0.95 : 0.99);
    policy.window = stream % 2 == 0 ? 1.0 : 0.25;
    const auto windows = static_cast<std::size_t>(rng.uniform_int(1, 600));
    // A third of the streams stop well short of their longest rule.
    const std::size_t covered =
        stream % 3 == 2 ? std::max<std::size_t>(1, windows / 8) : windows;
    const double horizon = static_cast<double>(covered) * policy.window;
    const auto multiple = [&](std::size_t k) {
      return static_cast<double>(k) * policy.window;
    };
    const auto fast = static_cast<std::size_t>(rng.uniform_int(1, 12));
    policy.rules = {
        {multiple(fast), multiple(fast), rng.uniform(1.0, 6.0)},
        {multiple(fast), multiple(windows), rng.uniform(1.0, 4.0)},
        {multiple(1), multiple(fast * 6), rng.uniform(1.0, 8.0)}};

    std::vector<std::pair<double, bool>> observations;
    const auto jobs = static_cast<std::size_t>(rng.uniform_int(0, 3000));
    double miss_rate = 0.0;
    for (std::size_t j = 0; j < jobs; ++j) {
      if (j % 97 == 0) miss_rate = rng.uniform() < 0.3 ? 0.6 : 0.01;
      // Some finishes land past the horizon and fold into its last window.
      const double t = rng.uniform(0.0, 1.1 * horizon + policy.window);
      observations.emplace_back(t, rng.uniform() < miss_rate);
    }

    obs::BurnRateMonitor monitor(policy, horizon);
    for (const auto& [t, missed] : observations) monitor.observe(t, missed);
    monitor.finalize();
    const ReferenceBurn want = reference_burn(policy, horizon, observations);
    SCOPED_TRACE("stream " + std::to_string(stream));
    EXPECT_EQ(bits(monitor.peak_burn()), bits(want.peak_burn));
    ASSERT_EQ(monitor.alerts().size(), want.alerts.size());
    for (std::size_t a = 0; a < want.alerts.size(); ++a) {
      const obs::BurnRateMonitor::Alert& got = monitor.alerts()[a];
      EXPECT_EQ(got.rule, want.alerts[a].rule);
      EXPECT_EQ(bits(got.time), bits(want.alerts[a].time));
      EXPECT_EQ(bits(got.fast_burn), bits(want.alerts[a].fast_burn));
      EXPECT_EQ(bits(got.slow_burn), bits(want.alerts[a].slow_burn));
    }
    fired += want.alerts.size();
  }
  EXPECT_GT(fired, 0u) << "the streams must trip some rule";
}

TEST(BurnRate, EmptyRunIsSilent) {
  obs::BurnRateMonitor monitor(tight_policy(), 10.0);
  monitor.finalize();
  EXPECT_TRUE(monitor.alerts().empty());
  EXPECT_EQ(monitor.peak_burn(), 0.0);
  EXPECT_EQ(monitor.observations(), 0u);
  EXPECT_NE(monitor.render().find("0 jobs"), std::string::npos);
}

}  // namespace
}  // namespace nldl
