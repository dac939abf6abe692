// Unit tests for the online (open-system) scheduling subsystem: arrival
// determinism, scheduler orderings, queue stability, service metrics.
#include "online/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "online/arrivals.hpp"
#include "online/metrics.hpp"
#include "online/scheduler.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace nldl::online {
namespace {

JobMix linear_mix(double lo = 50.0, double hi = 150.0) {
  JobMix mix;
  mix.load_lo = lo;
  mix.load_hi = hi;
  return mix;
}

JobMix mixed_alpha_mix() {
  JobMix mix;
  mix.alphas = {1.0, 2.0};
  mix.alpha_weights = {0.5, 0.5};
  return mix;
}

void expect_same_jobs(const std::vector<Job>& a, const std::vector<Job>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    EXPECT_DOUBLE_EQ(a[i].load, b[i].load);
    EXPECT_DOUBLE_EQ(a[i].alpha, b[i].alpha);
  }
}

TEST(Arrivals, PoissonIsDeterministicPerSeed) {
  const PoissonArrivals process(2.0, mixed_alpha_mix());
  util::Rng rng_a(42);
  util::Rng rng_b(42);
  const auto a = process.generate(200.0, rng_a);
  const auto b = process.generate(200.0, rng_b);
  expect_same_jobs(a, b);

  util::Rng rng_c(43);
  const auto c = process.generate(200.0, rng_c);
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a.front().arrival, c.front().arrival);
}

TEST(Arrivals, PoissonHitsTheConfiguredRate) {
  const double rate = 3.0;
  const PoissonArrivals process(rate, linear_mix());
  util::Rng rng(7);
  const auto jobs = process.generate(2000.0, rng);
  const double empirical = static_cast<double>(jobs.size()) / 2000.0;
  EXPECT_NEAR(empirical, rate, 0.15);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].arrival, jobs[i - 1].arrival);
    EXPECT_EQ(jobs[i].id, i);
  }
  for (const Job& job : jobs) {
    EXPECT_LT(job.arrival, 2000.0);
    EXPECT_GE(job.load, 50.0);
    EXPECT_LE(job.load, 150.0);
  }
}

TEST(Arrivals, DeterministicProcessHasExactSpacing) {
  const DeterministicArrivals process(2.5, linear_mix(100.0, 100.0));
  util::Rng rng(1);
  const auto jobs = process.generate(10.0, rng);
  ASSERT_EQ(jobs.size(), 4u);  // t = 0, 2.5, 5, 7.5
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(jobs[i].arrival, 2.5 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(jobs[i].load, 100.0);
  }

  // No accumulated-sum drift: 0.1 is inexact in binary, but the t = 1.0
  // tick must still be excluded from [0, 1).
  const DeterministicArrivals fine(0.1, linear_mix(100.0, 100.0));
  EXPECT_EQ(fine.generate(1.0, rng).size(), 10u);
}

TEST(Arrivals, MmppIsBurstierThanPoissonAtTheSameMeanRate) {
  // Quiet rate 0.5, burst rate 20, equal dwell: strongly bimodal gaps.
  const MmppArrivals mmpp(0.5, 20.0, 20.0, 20.0, linear_mix());
  util::Rng rng_m(11);
  const auto bursty = mmpp.generate(4000.0, rng_m);
  ASSERT_GT(bursty.size(), 100u);

  const double mean_rate =
      static_cast<double>(bursty.size()) / 4000.0;
  const PoissonArrivals poisson(mean_rate, linear_mix());
  util::Rng rng_p(11);
  const auto smooth = poisson.generate(4000.0, rng_p);

  const auto gap_cv = [](const std::vector<Job>& jobs) {
    std::vector<double> gaps;
    for (std::size_t i = 1; i < jobs.size(); ++i) {
      gaps.push_back(jobs[i].arrival - jobs[i - 1].arrival);
    }
    return util::stddev_of(gaps) / util::mean_of(gaps);
  };
  // Poisson inter-arrivals have CV = 1; the MMPP mix is overdispersed.
  EXPECT_GT(gap_cv(bursty), 1.3);
  EXPECT_NEAR(gap_cv(smooth), 1.0, 0.2);

  util::Rng rng_m2(11);
  expect_same_jobs(bursty, mmpp.generate(4000.0, rng_m2));
}

TEST(Arrivals, TraceReplaySortsAndRenumbers) {
  const TraceArrivals trace({{7, 5.0, 10.0, 1.0},
                             {9, 1.0, 20.0, 2.0},
                             {3, 3.0, 30.0, 1.0}});
  const auto& jobs = trace.trace();
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 1.0);
  EXPECT_DOUBLE_EQ(jobs[1].arrival, 3.0);
  EXPECT_DOUBLE_EQ(jobs[2].arrival, 5.0);
  for (std::size_t i = 0; i < jobs.size(); ++i) EXPECT_EQ(jobs[i].id, i);

  util::Rng rng(1);
  const auto clipped = trace.generate(4.0, rng);
  ASSERT_EQ(clipped.size(), 2u);
  EXPECT_DOUBLE_EQ(clipped[1].load, 30.0);
}

TEST(Arrivals, TraceReplayParsesFiles) {
  const std::string path = testing::TempDir() + "nldl_trace_test.txt";
  {
    std::ofstream out(path);
    out << "# arrival load alpha\n"
        << "2.5 100 1\n"
        << "\n"
        << "0.5 60 2.0\n";
  }
  const TraceArrivals trace = TraceArrivals::from_file(path);
  ASSERT_EQ(trace.trace().size(), 2u);
  EXPECT_DOUBLE_EQ(trace.trace()[0].arrival, 0.5);
  EXPECT_DOUBLE_EQ(trace.trace()[0].alpha, 2.0);
  EXPECT_DOUBLE_EQ(trace.trace()[1].load, 100.0);
  std::remove(path.c_str());

  EXPECT_THROW(TraceArrivals::from_file("/nonexistent/trace.txt"),
               util::PreconditionError);
}

TEST(Arrivals, ValidatesParameters) {
  EXPECT_THROW(PoissonArrivals(0.0, linear_mix()), util::PreconditionError);
  EXPECT_THROW(DeterministicArrivals(-1.0, linear_mix()),
               util::PreconditionError);
  JobMix bad = linear_mix();
  bad.alphas = {0.5};
  bad.alpha_weights = {1.0};
  EXPECT_THROW(PoissonArrivals(1.0, bad), util::PreconditionError);
  EXPECT_THROW(TraceArrivals({{0, -1.0, 10.0, 1.0}}),
               util::PreconditionError);
}

// --- Server -----------------------------------------------------------------

std::vector<Job> make_jobs(
    const std::vector<std::array<double, 3>>& rows) {
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    jobs.push_back({i, rows[i][0], rows[i][1], rows[i][2]});
  }
  return jobs;
}

TEST(Server, UncontendedJobsNeverWait) {
  // Period far beyond any service time: every job finds an idle server.
  const auto plat = platform::Platform::homogeneous(4);
  const Server server(plat);
  const DeterministicArrivals process(500.0, linear_mix(80.0, 120.0));
  util::Rng rng(3);
  const auto jobs = process.generate(5000.0, rng);
  ASSERT_GE(jobs.size(), 5u);

  const FcfsScheduler fcfs;
  const auto stats = server.run(jobs, fcfs);
  for (const JobStats& record : stats) {
    EXPECT_DOUBLE_EQ(record.wait(), 0.0);
    // Alone on the full platform, latency IS the isolated makespan (up to
    // the rounding of arrival + service − arrival).
    EXPECT_NEAR(record.slowdown(), 1.0, 1e-9);
    EXPECT_EQ(record.workers, plat.size());
  }
}

TEST(Server, QueueStaysStableAtLowLoad) {
  const auto plat = platform::Platform::homogeneous(8);
  const Server server(plat);
  // Mean isolated makespan ~ a few time units; rate chosen well below
  // the service capacity.
  const PoissonArrivals process(0.02, linear_mix(80.0, 120.0));
  util::Rng rng(17);
  const auto jobs = process.generate(20000.0, rng);
  ASSERT_GT(jobs.size(), 100u);

  const FcfsScheduler fcfs;
  const ServiceMetrics metrics = summarize(server.run(jobs, fcfs),
                                           plat.size());
  EXPECT_LT(metrics.utilization, 0.6);
  EXPECT_LT(metrics.mean_slowdown, 2.0);
  EXPECT_GE(metrics.p99_latency, metrics.p95_latency);
  EXPECT_GE(metrics.p95_latency, metrics.p50_latency);
}

TEST(Server, FcfsServesInArrivalOrder) {
  const auto plat = platform::Platform::homogeneous(4);
  const Server server(plat);
  const auto jobs =
      make_jobs({{0.0, 50.0, 1.0}, {1.0, 60.0, 2.0}, {2.0, 400.0, 1.0}});
  const FcfsScheduler fcfs;
  const auto stats = server.run(jobs, fcfs);
  EXPECT_LT(stats[0].dispatch, stats[1].dispatch);
  EXPECT_LT(stats[1].dispatch, stats[2].dispatch);
  EXPECT_DOUBLE_EQ(stats[1].dispatch, stats[0].finish);
  EXPECT_DOUBLE_EQ(stats[2].dispatch, stats[1].finish);
}

TEST(Server, SpmfPrefersThePredictedShorterJobNotTheSmallerOne) {
  const auto plat = platform::Platform::homogeneous(4);

  // The crux: a 400-unit LINEAR job is predicted faster (T = 200) than a
  // 60-unit QUADRATIC job (T = 240) — smallest-size-first mis-ranks under
  // superlinear cost.
  const Job small_quadratic{1, 1.0, 60.0, 2.0};
  const Job big_linear{2, 2.0, 400.0, 1.0};
  EXPECT_LT(predicted_makespan(big_linear, plat),
            predicted_makespan(small_quadratic, plat));

  const auto jobs =
      make_jobs({{0.0, 50.0, 1.0}, {1.0, 60.0, 2.0}, {2.0, 400.0, 1.0}});
  const Server server(plat);
  const SpmfScheduler spmf;
  const auto spmf_stats = server.run(jobs, spmf);
  const FcfsScheduler fcfs;
  const auto fcfs_stats = server.run(jobs, fcfs);

  // FCFS takes the small quadratic job first; SPMF reorders and serves
  // the big linear job first.
  EXPECT_LT(fcfs_stats[1].dispatch, fcfs_stats[2].dispatch);
  EXPECT_LT(spmf_stats[2].dispatch, spmf_stats[1].dispatch);
}

TEST(Server, SpmfPredictionsMatchTheServersCommModel) {
  // Under one-port the serial feed reverses the parallel-links ranking of
  // these two jobs on a slow shared link (c = 0.7): a comm-matched SPMF
  // must rank by the one-port prediction, not the parallel-links one.
  const auto plat = platform::Platform::from_speeds({1, 1, 1, 1}, 0.7);
  const Job big_linear{0, 0.0, 400.0, 1.0};
  const Job small_quadratic{1, 0.0, 60.0, 2.0};
  using sim::CommModelKind;
  EXPECT_LT(predicted_makespan(big_linear, plat,
                               CommModelKind::kParallelLinks),
            predicted_makespan(small_quadratic, plat,
                               CommModelKind::kParallelLinks));
  EXPECT_GT(predicted_makespan(big_linear, plat, CommModelKind::kOnePort),
            predicted_makespan(small_quadratic, plat,
                               CommModelKind::kOnePort));

  const auto jobs =
      make_jobs({{0.0, 10.0, 1.0}, {1.0, 400.0, 1.0}, {1.5, 60.0, 2.0}});
  ServerOptions one_port;
  one_port.comm = CommModelKind::kOnePort;
  const Server server(plat, one_port);
  const SpmfScheduler matched(CommModelKind::kOnePort);
  const auto stats = server.run(jobs, matched);
  // The one-port prediction says the quadratic job is shorter: it goes
  // first even though a parallel-links (or size-based) ranking disagrees.
  EXPECT_LT(stats[2].dispatch, stats[1].dispatch);
}

TEST(Server, FairShareOverlapsJobsOnDisjointPartitions) {
  const auto plat = platform::Platform::homogeneous(4);
  const Server server(plat);
  const auto jobs = make_jobs({{0.0, 100.0, 1.0}, {0.5, 100.0, 1.0}});

  const FcfsScheduler fcfs;
  const auto serial = server.run(jobs, fcfs);
  EXPECT_DOUBLE_EQ(serial[1].dispatch, serial[0].finish);
  EXPECT_EQ(serial[0].workers, 4u);

  const FairShareScheduler fair(2);
  const auto shared = server.run(jobs, fair);
  EXPECT_DOUBLE_EQ(shared[0].dispatch, 0.0);
  EXPECT_DOUBLE_EQ(shared[1].dispatch, 0.5);  // before job 0 finishes
  EXPECT_LT(shared[1].dispatch, shared[0].finish);
  EXPECT_EQ(shared[0].workers, 2u);
  EXPECT_EQ(shared[1].workers, 2u);
  EXPECT_NE(shared[0].slot, shared[1].slot);
  // Half the platform, zero wait: slowdown comes from the smaller share.
  EXPECT_GT(shared[0].slowdown(), 1.0);
}

TEST(Server, SharesAreClampedToThePlatform) {
  const auto plat = platform::Platform::homogeneous(2);
  const Server server(plat);
  const auto jobs = make_jobs({{0.0, 50.0, 1.0}, {0.0, 50.0, 1.0},
                               {0.0, 50.0, 1.0}});
  const FairShareScheduler fair(8);  // more shares than workers
  const auto stats = server.run(jobs, fair);
  for (const JobStats& record : stats) EXPECT_EQ(record.workers, 1u);
}

TEST(Server, OneWorkerSlotsServeEveryJob) {
  // Eight fair-share slots on eight workers: every job is solved on a
  // one-worker platform, where the solver's makespan bracket is tight.
  const auto plat = platform::Platform::two_class(8, 1.0, 4.0);
  JobMix mix = mixed_alpha_mix();
  mix.load_lo = 40.0;
  mix.load_hi = 120.0;
  util::Rng rng(7);
  const auto jobs = PoissonArrivals(0.05, mix).generate(2000.0, rng);
  ASSERT_EQ(jobs.size(), 105U);
  const FairShareScheduler fair(8);
  const auto stats = Server(plat).run(jobs, fair);
  ASSERT_EQ(stats.size(), jobs.size());
  for (const JobStats& record : stats) {
    EXPECT_EQ(record.workers, 1U);
    EXPECT_TRUE(std::isfinite(record.finish));
    EXPECT_GT(record.finish, record.dispatch);
  }
}

TEST(Server, RunsUnderEveryCommModel) {
  const auto plat = platform::Platform::two_class(4, 1.0, 3.0);
  const auto jobs =
      make_jobs({{0.0, 80.0, 2.0}, {5.0, 120.0, 1.0}, {6.0, 60.0, 2.0}});
  const FcfsScheduler fcfs;

  ServerOptions parallel;
  ServerOptions one_port;
  one_port.comm = sim::CommModelKind::kOnePort;
  ServerOptions bounded;
  bounded.comm = sim::CommModelKind::kBoundedMultiport;
  bounded.capacity = 2.0;

  for (const ServerOptions& options : {parallel, one_port, bounded}) {
    const Server server(plat, options);
    const auto stats = server.run(jobs, fcfs);
    for (const JobStats& record : stats) {
      EXPECT_TRUE(std::isfinite(record.finish));
      EXPECT_GE(record.finish, record.dispatch);
      EXPECT_GE(record.slowdown(), 1.0 - 1e-12);
    }
    // Bit-identical replay: the server consumes no RNG.
    const auto again = server.run(jobs, fcfs);
    for (std::size_t i = 0; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].dispatch, again[i].dispatch);
      EXPECT_EQ(stats[i].finish, again[i].finish);
      EXPECT_EQ(stats[i].compute_time, again[i].compute_time);
      EXPECT_EQ(stats[i].isolated_makespan, again[i].isolated_makespan);
    }
  }
}

TEST(Server, ValidatesTheJobStream) {
  // Malformed streams are caller errors under either master mode. A NaN or
  // infinite arrival, load or alpha must surface as a PreconditionError up
  // front, never as the event loop's "stopped with unserved jobs"
  // invariant (an +inf arrival is never admitted, so the loop would drain
  // without it).
  const auto plat = platform::Platform::homogeneous(4);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const MasterMode master :
       {MasterMode::kPrivatePort, MasterMode::kSharedMaster}) {
    SCOPED_TRACE(to_string(master));
    ServerOptions options;
    options.master = master;
    const Server server(plat, options);
    const FairShareScheduler fair(2);
    EXPECT_THROW(
        server.run(make_jobs({{5.0, 10.0, 1.0}, {1.0, 10.0, 1.0}}), fair),
        util::PreconditionError);
    auto bad_ids = make_jobs({{0.0, 10.0, 1.0}});
    bad_ids[0].id = 7;
    EXPECT_THROW(server.run(bad_ids, fair), util::PreconditionError);
    EXPECT_THROW(server.run(make_jobs({{0.0, 0.0, 1.0}}), fair),
                 util::PreconditionError);
    for (const double bad : {nan, inf, -inf}) {
      SCOPED_TRACE(bad);
      EXPECT_THROW(
          server.run(make_jobs({{0.0, 10.0, 1.0}, {bad, 10.0, 1.0}}), fair),
          util::PreconditionError);
      EXPECT_THROW(server.run(make_jobs({{0.0, bad, 1.0}}), fair),
                   util::PreconditionError);
      EXPECT_THROW(server.run(make_jobs({{0.0, 10.0, bad}}), fair),
                   util::PreconditionError);
    }
  }
}

TEST(Server, SkippingIsolatedBaselineZeroesSlowdown) {
  const auto plat = platform::Platform::homogeneous(2);
  ServerOptions options;
  options.record_isolated = false;
  const Server server(plat, options);
  const FcfsScheduler fcfs;
  const auto stats = server.run(make_jobs({{0.0, 10.0, 1.0}}), fcfs);
  EXPECT_DOUBLE_EQ(stats[0].isolated_makespan, 0.0);
  EXPECT_DOUBLE_EQ(stats[0].slowdown(), 1.0);
}

// --- Metrics ----------------------------------------------------------------

TEST(Metrics, SummarizeMatchesHandComputation) {
  // Three jobs on p = 2; percentiles of n <= 5 samples are exact.
  std::vector<JobStats> stats(3);
  for (std::size_t i = 0; i < 3; ++i) {
    stats[i].job = {i, 1.0 * static_cast<double>(i), 10.0, 1.0};
    stats[i].dispatch = stats[i].job.arrival + 1.0;
    stats[i].finish = stats[i].dispatch + 2.0 + static_cast<double>(i);
    stats[i].compute_time = 1.0;
    stats[i].isolated_makespan = 2.0;
  }
  const ServiceMetrics metrics = summarize(stats, 2);
  EXPECT_EQ(metrics.jobs, 3u);
  EXPECT_DOUBLE_EQ(metrics.horizon, stats[2].finish);
  EXPECT_DOUBLE_EQ(metrics.throughput, 3.0 / stats[2].finish);
  EXPECT_DOUBLE_EQ(metrics.utilization, 3.0 / (2.0 * stats[2].finish));
  EXPECT_DOUBLE_EQ(metrics.mean_wait, 1.0);
  EXPECT_DOUBLE_EQ(metrics.mean_latency, 4.0);  // latencies 3, 4, 5
  EXPECT_DOUBLE_EQ(metrics.p50_latency, util::quantile({3, 4, 5}, 0.5));
  EXPECT_DOUBLE_EQ(metrics.p99_latency, util::quantile({3, 4, 5}, 0.99));
  EXPECT_DOUBLE_EQ(metrics.mean_slowdown, 2.0);
  EXPECT_EQ(metrics.signature().size(), 15u);
  EXPECT_EQ(metrics.degenerate_slowdowns, 0u);
}

TEST(Metrics, EmptyRunIsAllZeros) {
  const ServiceMetrics metrics = summarize({}, 4);
  EXPECT_EQ(metrics.jobs, 0u);
  EXPECT_DOUBLE_EQ(metrics.throughput, 0.0);
  EXPECT_DOUBLE_EQ(metrics.p99_latency, 0.0);
  // EVERY field of the zero-jobs summary is exactly zero — no NaN, no
  // -inf max over an empty accumulator.
  for (const double value : metrics.signature()) {
    EXPECT_DOUBLE_EQ(value, 0.0);
  }
}

TEST(Metrics, SingleJobPercentilesAreThatSample) {
  JobStats only;
  only.job = {0, 1.0, 10.0, 1.0};
  only.dispatch = 2.0;
  only.finish = 5.0;
  only.compute_time = 3.0;
  only.isolated_makespan = 2.0;
  const ServiceMetrics metrics = summarize({only}, 4);
  EXPECT_EQ(metrics.jobs, 1u);
  for (const double value : metrics.signature()) {
    EXPECT_TRUE(std::isfinite(value));
  }
  EXPECT_DOUBLE_EQ(metrics.mean_wait, 1.0);
  EXPECT_DOUBLE_EQ(metrics.max_wait, 1.0);
  // n = 1: every percentile is exactly the one latency sample.
  EXPECT_DOUBLE_EQ(metrics.p50_latency, 4.0);
  EXPECT_DOUBLE_EQ(metrics.p95_latency, 4.0);
  EXPECT_DOUBLE_EQ(metrics.p99_latency, 4.0);
  EXPECT_DOUBLE_EQ(metrics.mean_slowdown, 2.0);
  EXPECT_DOUBLE_EQ(metrics.throughput, 1.0 / 5.0);
  EXPECT_DOUBLE_EQ(metrics.utilization, 3.0 / (4.0 * 5.0));
}

TEST(Metrics, ZeroHorizonSingleJobHasNoDivisionByZero) {
  // A degenerate record finishing at t = 0: throughput and utilization
  // must report 0, not 0/0.
  JobStats instant;
  instant.job = {0, 0.0, 1.0, 1.0};
  const ServiceMetrics metrics = summarize({instant}, 2);
  EXPECT_DOUBLE_EQ(metrics.throughput, 0.0);
  EXPECT_DOUBLE_EQ(metrics.utilization, 0.0);
  for (const double value : metrics.signature()) {
    EXPECT_TRUE(std::isfinite(value));
  }
}

TEST(Metrics, RejectsMalformedRecords) {
  MetricsAccumulator acc(2);
  JobStats bad;
  bad.job = {0, 5.0, 1.0, 1.0};
  bad.dispatch = 1.0;  // dispatch before arrival
  bad.finish = 6.0;
  EXPECT_THROW(acc.push(bad), util::PreconditionError);
  bad.dispatch = 6.0;
  bad.finish = 5.0;  // finish before dispatch
  EXPECT_THROW(acc.push(bad), util::PreconditionError);
  bad.finish = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(acc.push(bad), util::PreconditionError);
  EXPECT_EQ(acc.jobs(), 0u);  // nothing was half-accumulated
}

TEST(Metrics, DegenerateSlowdownSamplesAreExcludedNotPoisonous) {
  // An epsilon isolated baseline overflows latency / baseline to +inf;
  // the documented rule excludes the sample (counting it) so every
  // slowdown statistic stays finite and the P² state never sees a
  // non-finite push (which would throw mid-push and leave the
  // accumulator inconsistent).
  MetricsAccumulator acc(4);
  JobStats sane;
  sane.job = {0, 0.0, 10.0, 1.0};
  sane.dispatch = 1.0;
  sane.finish = 5.0;
  sane.compute_time = 3.0;
  sane.isolated_makespan = 2.0;
  JobStats degenerate = sane;
  degenerate.job.id = 1;
  degenerate.isolated_makespan = 5e-324;  // denormal: latency / it = inf
  ASSERT_TRUE(std::isinf(degenerate.slowdown()));
  acc.push(sane);
  acc.push(degenerate);
  acc.push(sane);
  const ServiceMetrics metrics = acc.finish();
  EXPECT_EQ(metrics.jobs, 3u);
  EXPECT_EQ(metrics.degenerate_slowdowns, 1u);
  for (const double value : metrics.signature()) {
    EXPECT_TRUE(std::isfinite(value));
  }
  // The excluded job still counts toward latency and throughput, and the
  // surviving slowdown samples are unpolluted.
  EXPECT_DOUBLE_EQ(metrics.mean_latency, 5.0);
  EXPECT_DOUBLE_EQ(metrics.mean_slowdown, 2.5);
  EXPECT_DOUBLE_EQ(metrics.p50_slowdown, 2.5);
  EXPECT_DOUBLE_EQ(metrics.p95_slowdown, 2.5);
  EXPECT_DOUBLE_EQ(metrics.p99_slowdown, 2.5);
}

TEST(Metrics, AllDegenerateSlowdownsReportZeroNotEmptyEstimators) {
  MetricsAccumulator acc(2);
  JobStats degenerate;
  degenerate.job = {0, 0.0, 1.0, 1.0};
  degenerate.dispatch = 0.0;
  degenerate.finish = 4.0;
  degenerate.isolated_makespan = 5e-324;
  acc.push(degenerate);
  const ServiceMetrics metrics = acc.finish();
  EXPECT_EQ(metrics.degenerate_slowdowns, 1u);
  EXPECT_DOUBLE_EQ(metrics.mean_slowdown, 0.0);
  EXPECT_DOUBLE_EQ(metrics.p99_slowdown, 0.0);
  for (const double value : metrics.signature()) {
    EXPECT_TRUE(std::isfinite(value));
  }
}

// --- PredictionCache --------------------------------------------------------

TEST(PredictionCache, MemoizesPerJobId) {
  const auto plat = platform::Platform::homogeneous(4);
  PredictionCache cache;
  const Job job{7, 0.0, 100.0, 2.0};
  const double first = cache.predict(job, plat, sim::CommModelKind::kParallelLinks);
  const double second = cache.predict(job, plat, sim::CommModelKind::kParallelLinks);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first, predicted_makespan(job, plat));
}

TEST(PredictionCache, CommModelChangeReSolvesTheSameJobId) {
  // The satellite case: the same job id re-ranked after a comm-model
  // change must get the matched prediction, not the stale one.
  const auto plat = platform::Platform::from_speeds({1, 1, 1, 1}, 0.7);
  PredictionCache cache;
  const Job job{3, 0.0, 400.0, 1.0};
  const double parallel =
      cache.predict(job, plat, sim::CommModelKind::kParallelLinks);
  const double one_port =
      cache.predict(job, plat, sim::CommModelKind::kOnePort);
  EXPECT_EQ(cache.misses(), 2u);  // the comm change evicted the entry
  EXPECT_NE(parallel, one_port);
  EXPECT_EQ(one_port,
            predicted_makespan(job, plat, sim::CommModelKind::kOnePort));
  // And flipping back re-solves again (the entry was overwritten).
  EXPECT_EQ(cache.predict(job, plat, sim::CommModelKind::kParallelLinks),
            parallel);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(PredictionCache, ReusedJobIdWithNewShapeReSolves) {
  const auto plat = platform::Platform::homogeneous(4);
  PredictionCache cache;
  const Job original{0, 0.0, 100.0, 1.0};
  const Job reused{0, 0.0, 60.0, 2.0};  // same id, different job
  const double first = cache.predict(original, plat,
                                     sim::CommModelKind::kParallelLinks);
  const double second =
      cache.predict(reused, plat, sim::CommModelKind::kParallelLinks);
  EXPECT_NE(first, second);
  EXPECT_EQ(second, predicted_makespan(reused, plat));
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PredictionCache, AggregateTyingPlatformsDoNotCollide) {
  // Same worker count, same Σ speed, same Σ c — only the per-worker
  // values differ. The fingerprint must still tell them apart (it
  // digests exact per-worker bits, not aggregate sums).
  const auto het = platform::Platform::from_speeds({1.0, 3.0});
  const auto hom = platform::Platform::from_speeds({2.0, 2.0});
  PredictionCache cache;
  const Job job{0, 0.0, 100.0, 2.0};
  const double on_het =
      cache.predict(job, het, sim::CommModelKind::kParallelLinks);
  const double on_hom =
      cache.predict(job, hom, sim::CommModelKind::kParallelLinks);
  EXPECT_EQ(cache.misses(), 2u);  // the switch evicted and re-solved
  EXPECT_EQ(on_hom, predicted_makespan(job, hom));
  EXPECT_NE(on_het, on_hom);
}

TEST(PredictionCache, PlatformChangeEvictsEverything) {
  const auto big = platform::Platform::homogeneous(8);
  const auto small = platform::Platform::homogeneous(2);
  PredictionCache cache;
  const Job job{0, 0.0, 100.0, 2.0};
  const double on_big =
      cache.predict(job, big, sim::CommModelKind::kParallelLinks);
  const double on_small =
      cache.predict(job, small, sim::CommModelKind::kParallelLinks);
  EXPECT_LT(on_big, on_small);  // more workers, shorter round
  EXPECT_EQ(cache.size(), 1u);  // the big-platform entry was evicted
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PredictionCache, SpmfSchedulerExposesItsCache) {
  const auto plat = platform::Platform::homogeneous(4);
  const SpmfScheduler spmf;
  const auto jobs =
      make_jobs({{0.0, 50.0, 1.0}, {1.0, 60.0, 2.0}, {2.0, 400.0, 1.0}});
  (void)spmf.pick(jobs, plat);
  EXPECT_EQ(spmf.cache().misses(), 3u);  // one solve per queued job
  (void)spmf.pick(jobs, plat);
  EXPECT_EQ(spmf.cache().misses(), 3u);  // every re-rank is a hit
  EXPECT_EQ(spmf.cache().hits(), 3u);
}

// --- Heavy-tailed job sizes -------------------------------------------------

TEST(Arrivals, ParetoMixDrawsHeavyTailedLoads) {
  JobMix mix;
  mix.load_lo = 10.0;
  mix.load_hi = 1000.0;
  mix.load_dist = LoadDistribution::kPareto;
  mix.pareto_shape = 1.2;
  const PoissonArrivals process(2.0, mix);
  util::Rng rng(5);
  const auto jobs = process.generate(3000.0, rng);
  ASSERT_GT(jobs.size(), 2000u);

  double max_load = 0.0;
  std::size_t small = 0;
  for (const Job& job : jobs) {
    ASSERT_GE(job.load, 10.0);
    ASSERT_LE(job.load, 1000.0);
    max_load = std::max(max_load, job.load);
    if (job.load < 20.0) ++small;
  }
  // Heavy tail: the cap is actually hit AND most jobs stay small
  // (P(X < 20) = 1 − 2^−1.2 ≈ 56%).
  EXPECT_GT(max_load, 900.0);
  EXPECT_GT(static_cast<double>(small) / static_cast<double>(jobs.size()),
            0.45);

  // Empirical mean tracks the truncated-Pareto closed form mean_load().
  double sum = 0.0;
  for (const Job& job : jobs) sum += job.load;
  const double empirical = sum / static_cast<double>(jobs.size());
  EXPECT_NEAR(empirical / mix.mean_load(), 1.0, 0.1);

  util::Rng replay(5);
  expect_same_jobs(jobs, process.generate(3000.0, replay));
}

TEST(Arrivals, ParetoMixValidatesShape) {
  JobMix bad;
  bad.load_dist = LoadDistribution::kPareto;
  bad.pareto_shape = 0.0;
  EXPECT_THROW(PoissonArrivals(1.0, bad), util::PreconditionError);
}

TEST(Arrivals, UniformMeanLoadIsTheMidpoint) {
  EXPECT_DOUBLE_EQ(linear_mix().mean_load(), 100.0);
  JobMix pareto = linear_mix();
  pareto.load_dist = LoadDistribution::kPareto;
  pareto.pareto_shape = 2.0;
  // Truncated Pareto on [50, 150], a = 2: body + cap·tail
  //   = 2·50²·(1/50 − 1/150)/1 ... spelled out: (a/(a−1))·lo^a·(lo^(1−a)
  //   − hi^(1−a)) + hi·(lo/hi)^a = 2·2500·(1/50 − 1/150) + 150/9.
  const double expected =
      2.0 * 2500.0 * (1.0 / 50.0 - 1.0 / 150.0) + 150.0 / 9.0;
  EXPECT_NEAR(pareto.mean_load(), expected, 1e-9);
}

}  // namespace
}  // namespace nldl::online
