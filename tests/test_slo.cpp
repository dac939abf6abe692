// Tests for obs::BurnRateMonitor (multi-window SLO burn-rate alerting):
// base-window addressing and clamping, rising-edge alert semantics,
// determinism, and the kAlert / registry side channels of finalize().
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
