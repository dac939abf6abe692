// Shared-master contention: the equivalence suite of ISSUE 5.
//
// Pins the degenerate limits that make the shared-master modes trustworthy:
//
//   - engine level: chunks with non-overlapping release windows replay
//     exactly like separate sequential runs (releases that never overlap
//     cannot contend), and releases under a shared capacity only ever
//     slow transfers down (contention is monotone);
//   - online level: a single job under MasterMode::kSharedMaster is
//     bit-identical to the private-port run, two jobs with disjoint busy
//     periods match the private-port run bit for bit, and overlapping
//     fair-share jobs under a capped master finish no earlier than under
//     private ports — strictly later when the cap binds;
//   - qos level: concurrency > 1 serves installments of different jobs on
//     disjoint subsets concurrently with deterministic, internally
//     consistent accounting (tests/test_qos.cpp keeps the serial-path
//     pins; the concurrent loop is exercised here);
//   - online vs qos: fair share on a shared master and atomic FCFS qos
//     service at the same concurrency agree bit for bit on the
//     bench_contention streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "online/arrivals.hpp"
#include "online/metrics.hpp"
#include "online/scheduler.hpp"
#include "online/server.hpp"
#include "platform/platform.hpp"
#include "qos/plan.hpp"
#include "qos/policy.hpp"
#include "qos/server.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nldl {
namespace {

using online::Job;
using online::JobStats;
using online::MasterMode;
using platform::Platform;

constexpr double kInf = std::numeric_limits<double>::infinity();

// --- engine: non-overlapping release windows ------------------------------

TEST(SharedMasterEngine, DisjointReleaseWindowsMatchSequentialRuns) {
  // Job A's chunks release at 0, job B's at a window past A's makespan:
  // the combined multiplexed run must equal the two runs replayed
  // separately (same releases), span for span, under every model.
  const Platform plat = Platform::from_speeds({1.0, 2.0, 3.0}, 0.7);
  const sim::Engine engine(plat);
  const std::vector<sim::ChunkAssignment> job_a{
      {0, 3.0, 0.0, 1.0}, {1, 5.0, 0.0, 1.0}, {2, 2.0, 0.0, 1.0}};
  const sim::SimResult alone_a =
      engine.run(job_a, sim::CommModelKind::kParallelLinks);
  const double window = alone_a.makespan + 10.0;
  std::vector<sim::ChunkAssignment> job_b{
      {1, 4.0, window, 2.0}, {0, 1.5, window, 2.0}};

  std::vector<sim::ChunkAssignment> combined = job_a;
  combined.insert(combined.end(), job_b.begin(), job_b.end());

  const sim::BoundedMultiportModel bounded(1.5);
  const sim::ParallelLinksModel links;
  const sim::OnePortModel port;
  for (const sim::CommModel* model : {static_cast<const sim::CommModel*>(
                                          &links),
                                      static_cast<const sim::CommModel*>(
                                          &port),
                                      static_cast<const sim::CommModel*>(
                                          &bounded)}) {
    const sim::SimResult both = engine.run(combined, *model);
    const sim::SimResult only_a = engine.run(job_a, *model);
    const sim::SimResult only_b = engine.run(job_b, *model);
    for (std::size_t i = 0; i < job_a.size(); ++i) {
      EXPECT_EQ(both.spans[i].comm_start, only_a.spans[i].comm_start);
      EXPECT_EQ(both.spans[i].comm_end, only_a.spans[i].comm_end);
      EXPECT_EQ(both.spans[i].compute_end, only_a.spans[i].compute_end);
    }
    for (std::size_t i = 0; i < job_b.size(); ++i) {
      const sim::ChunkSpan& span = both.spans[job_a.size() + i];
      EXPECT_EQ(span.comm_start, only_b.spans[i].comm_start);
      EXPECT_EQ(span.comm_end, only_b.spans[i].comm_end);
      EXPECT_EQ(span.compute_end, only_b.spans[i].compute_end);
    }
    EXPECT_EQ(both.makespan, only_b.makespan);
  }
}

TEST(SharedMasterEngine, OverlappingReleasesOnlyEverSlowTransfersDown) {
  // Randomized: adding a second time-released job to a capped master
  // never finishes the first job's chunks earlier (water-filling is
  // monotone in the competing set).
  util::Rng rng(555);
  for (int rep = 0; rep < 30; ++rep) {
    const std::size_t p = static_cast<std::size_t>(rng.uniform_int(2, 6));
    std::vector<double> speeds;
    for (std::size_t i = 0; i < p; ++i) {
      speeds.push_back(rng.uniform(0.5, 3.0));
    }
    const Platform plat = Platform::from_speeds(speeds, rng.uniform(0.3, 2.0));
    const sim::Engine engine(plat);

    std::vector<sim::ChunkAssignment> first;
    const std::size_t chunks =
        static_cast<std::size_t>(rng.uniform_int(1, 6));
    for (std::size_t k = 0; k < chunks; ++k) {
      first.push_back({static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(p) - 1)),
                       rng.uniform(0.5, 8.0)});
    }
    std::vector<sim::ChunkAssignment> both = first;
    const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t k = 0; k < extra; ++k) {
      both.push_back({static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(p) - 1)),
                      rng.uniform(0.5, 8.0), rng.uniform(0.0, 5.0)});
    }
    const sim::BoundedMultiportModel model(rng.uniform(0.5, 3.0));
    const sim::SimResult base = engine.run(first, model);
    const sim::SimResult loaded = engine.run(both, model);
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_GE(loaded.spans[i].comm_end,
                base.spans[i].comm_end - 1e-9)
          << "rep " << rep << " chunk " << i;
    }
  }
}

// --- online server: shared vs private -------------------------------------

void expect_identical_stats(const std::vector<JobStats>& a,
                            const std::vector<JobStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dispatch, b[i].dispatch) << "job " << i;
    EXPECT_EQ(a[i].finish, b[i].finish) << "job " << i;
    EXPECT_EQ(a[i].slot, b[i].slot) << "job " << i;
    EXPECT_EQ(a[i].workers, b[i].workers) << "job " << i;
    EXPECT_EQ(a[i].compute_time, b[i].compute_time) << "job " << i;
    EXPECT_EQ(a[i].isolated_makespan, b[i].isolated_makespan) << "job " << i;
  }
}

std::vector<Job> poisson_stream(double rate, double horizon,
                                std::uint64_t seed) {
  online::JobMix mix;
  mix.load_lo = 40.0;
  mix.load_hi = 120.0;
  mix.alphas = {1.0, 2.0};
  mix.alpha_weights = {0.5, 0.5};
  util::Rng rng(seed);
  return online::PoissonArrivals(rate, mix).generate(horizon, rng);
}

TEST(SharedMasterOnline, SingleJobIsBitIdenticalToPrivatePort) {
  const Platform plat = Platform::two_class(8, 1.0, 3.0);
  const std::vector<Job> jobs{{0, 2.5, 80.0, 2.0}};
  for (const sim::CommModelKind comm :
       {sim::CommModelKind::kParallelLinks, sim::CommModelKind::kOnePort,
        sim::CommModelKind::kBoundedMultiport}) {
    online::ServerOptions priv;
    priv.comm = comm;
    if (comm == sim::CommModelKind::kBoundedMultiport) priv.capacity = 2.0;
    online::ServerOptions shared = priv;
    shared.master = MasterMode::kSharedMaster;

    const online::Scheduler fcfs;
    const auto a = online::Server(plat, priv).run(jobs, fcfs);
    const auto b = online::Server(plat, shared).run(jobs, fcfs);
    expect_identical_stats(a, b);
  }
}

TEST(SharedMasterOnline, DisjointBusyPeriodsMatchPrivatePortBitForBit) {
  // Two jobs arriving far apart never overlap: every busy period holds
  // one job, so the shared-master run must reproduce the private-port
  // run exactly — including under fair share's carved slots.
  const Platform plat = Platform::two_class(8, 1.0, 3.0);
  const std::vector<Job> jobs{{0, 0.0, 100.0, 2.0},
                              {1, 1e6, 60.0, 1.0}};
  online::ServerOptions priv;
  priv.comm = sim::CommModelKind::kBoundedMultiport;
  priv.capacity = 1.5;
  online::ServerOptions shared = priv;
  shared.master = MasterMode::kSharedMaster;

  const online::FairShareScheduler fair(4);
  const auto a = online::Server(plat, priv).run(jobs, fair);
  const auto b = online::Server(plat, shared).run(jobs, fair);
  expect_identical_stats(a, b);
}

TEST(SharedMasterOnline, ExclusiveSchedulersNeverDivergeUnderSharing) {
  // One slot = one job in flight at a time = single-job busy periods:
  // FCFS and SPMF are unchanged by the master mode on a whole stream.
  const Platform plat = Platform::two_class(6, 1.0, 4.0);
  const auto jobs = poisson_stream(0.01, 2000.0, 99);
  ASSERT_GE(jobs.size(), 3u);
  online::ServerOptions priv;
  priv.comm = sim::CommModelKind::kBoundedMultiport;
  priv.capacity = 2.0;
  online::ServerOptions shared = priv;
  shared.master = MasterMode::kSharedMaster;

  const online::Scheduler fcfs;
  expect_identical_stats(online::Server(plat, priv).run(jobs, fcfs),
                         online::Server(plat, shared).run(jobs, fcfs));
  const online::SpmfScheduler spmf(priv.comm);
  const online::SpmfScheduler spmf2(priv.comm);
  expect_identical_stats(online::Server(plat, priv).run(jobs, spmf),
                         online::Server(plat, shared).run(jobs, spmf2));
}

TEST(SharedMasterOnline, ContentionOnlyEverDelaysFairShareJobs) {
  // Overlapping fair-share jobs under a binding master cap: every job
  // finishes no earlier than under private ports, and the capped stream
  // strictly later in aggregate (the free lunch private ports were
  // serving is gone).
  const Platform plat = Platform::two_class(8, 1.0, 3.0);
  const std::vector<Job> jobs{{0, 0.0, 90.0, 2.0},
                              {1, 0.0, 70.0, 2.0},
                              {2, 0.0, 80.0, 2.0},
                              {3, 0.0, 60.0, 2.0}};
  online::ServerOptions priv;
  priv.comm = sim::CommModelKind::kBoundedMultiport;
  priv.capacity = 1.0;  // binding: four slots want 4x a link's rate
  online::ServerOptions shared = priv;
  shared.master = MasterMode::kSharedMaster;

  const online::FairShareScheduler fair(4);
  const auto a = online::Server(plat, priv).run(jobs, fair);
  const auto b = online::Server(plat, shared).run(jobs, fair);
  double total_private = 0.0;
  double total_shared = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_GE(b[i].finish, a[i].finish - 1e-9) << "job " << i;
    total_private += a[i].finish;
    total_shared += b[i].finish;
  }
  EXPECT_GT(total_shared, total_private + 1e-6);
}

TEST(SharedMasterOnline, SharedRunsAreDeterministicOnReplay) {
  const Platform plat = Platform::two_class(8, 1.0, 3.0);
  const auto jobs = poisson_stream(0.08, 800.0, 1234);
  ASSERT_GE(jobs.size(), 10u);
  online::ServerOptions options;
  options.comm = sim::CommModelKind::kBoundedMultiport;
  options.capacity = 2.0;
  options.master = MasterMode::kSharedMaster;
  const online::Server server(plat, options);
  const online::FairShareScheduler fair(4);
  const auto a = server.run(jobs, fair);
  const auto b = server.run(jobs, fair);
  expect_identical_stats(a, b);
  // And the stream summarizes to finite metrics.
  const auto metrics = online::summarize(a, plat.size());
  EXPECT_TRUE(std::isfinite(metrics.mean_latency));
  EXPECT_TRUE(std::isfinite(metrics.p99_latency));
  EXPECT_GT(metrics.utilization, 0.0);
}

TEST(SharedMasterOnline, MasterModeNames) {
  EXPECT_EQ(online::to_string(MasterMode::kPrivatePort), "private-port");
  EXPECT_EQ(online::to_string(MasterMode::kSharedMaster), "shared-master");
}

// --- qos server: k concurrent installments on disjoint subsets ------------

std::vector<Job> qos_stream(std::initializer_list<Job> jobs) {
  return std::vector<Job>(jobs);
}

qos::ServerOptions qos_options(std::size_t concurrency, std::size_t rounds,
                               double restart_fraction,
                               double capacity = kInf) {
  qos::ServerOptions options;
  options.service.comm = capacity < kInf
                             ? sim::CommModelKind::kBoundedMultiport
                             : sim::CommModelKind::kParallelLinks;
  options.service.capacity = capacity;
  options.service.plan.rounds = rounds;
  options.service.plan.restart_load_fraction = restart_fraction;
  options.admission.mode = qos::AdmissionMode::kAdmitAll;
  options.concurrency = concurrency;
  return options;
}

TEST(SharedMasterQos, ConcurrentInstallmentsOverlapDifferentJobs) {
  // Two jobs arriving together, two subsets: both dispatch at t = 0 and
  // overlap in service — the serial server could never start the second
  // before the first's installment ended.
  const Platform plat = Platform::homogeneous(4, 0.5);
  const auto jobs = qos_stream({{0, 0.0, 40.0, 1.0}, {1, 0.0, 40.0, 1.0}});
  const qos::Server server(plat, qos_options(2, 2, 0.0));
  qos::FcfsPolicy fcfs;
  const auto records = server.run(jobs, fcfs);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].dispatch, 0.0);
  EXPECT_DOUBLE_EQ(records[1].dispatch, 0.0);
  for (const qos::JobRecord& record : records) {
    EXPECT_TRUE(record.admitted);
    EXPECT_GT(record.finish, 0.0);
    EXPECT_GT(record.service_time, 0.0);
    EXPECT_GT(record.compute_time, 0.0);
  }
  // Each job ran on half the platform; with free links both finish at
  // the same instant (homogeneous symmetric subsets).
  EXPECT_DOUBLE_EQ(records[0].finish, records[1].finish);

  // The serial server can only start job 1 after job 0's installments
  // yield the whole platform; the concurrent server starts it at once.
  // (With linear jobs the FINISH times tie exactly — half the platform
  // for twice as long is the linear identity; the paper's point is that
  // alpha > 1 breaks it, which SharedMasterQos contention tests and
  // bench_contention quantify.)
  const qos::Server serial(plat, qos_options(1, 2, 0.0));
  qos::FcfsPolicy fcfs2;
  const auto serial_records = serial.run(jobs, fcfs2);
  EXPECT_DOUBLE_EQ(records[1].wait(), 0.0);
  EXPECT_GT(serial_records[1].wait(), 0.0);
}

TEST(SharedMasterQos, ConcurrentRunsAreDeterministicOnReplay) {
  const Platform plat = Platform::two_class(8, 1.0, 3.0);
  const auto jobs = qos_stream({{0, 0.0, 60.0, 2.0},
                                {1, 1.0, 30.0, 1.0},
                                {2, 2.0, 45.0, 2.0},
                                {3, 10.0, 25.0, 1.0},
                                {4, 11.0, 70.0, 1.0}});
  const qos::Server server(plat, qos_options(2, 3, 0.4, 2.0));
  qos::SrptPolicy srpt;
  const auto a = server.run(jobs, srpt);
  qos::SrptPolicy srpt2;
  const auto b = server.run(jobs, srpt2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dispatch, b[i].dispatch);
    EXPECT_EQ(a[i].finish, b[i].finish);
    EXPECT_EQ(a[i].service_time, b[i].service_time);
    EXPECT_EQ(a[i].compute_time, b[i].compute_time);
    EXPECT_EQ(a[i].preemptions, b[i].preemptions);
    EXPECT_EQ(a[i].restart_time, b[i].restart_time);
    EXPECT_GE(a[i].finish, a[i].dispatch);
  }
}

TEST(SharedMasterQos, SharedCapacityDelaysConcurrentInstallments) {
  // The same concurrent stream under a binding master cap finishes no
  // earlier than under an uncapped master, and strictly later for at
  // least one job: the subsets genuinely share the bandwidth.
  const Platform plat = Platform::homogeneous(4, 1.0);
  const auto jobs = qos_stream({{0, 0.0, 50.0, 1.0}, {1, 0.0, 50.0, 1.0}});
  qos::FcfsPolicy fcfs;
  const qos::Server capped(plat, qos_options(2, 2, 0.0, 0.8));
  const auto tight = capped.run(jobs, fcfs);
  qos::FcfsPolicy fcfs2;
  const qos::Server uncapped(plat, qos_options(2, 2, 0.0, 1e9));
  const auto loose = uncapped.run(jobs, fcfs2);
  double sum_tight = 0.0;
  double sum_loose = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_GE(tight[i].finish, loose[i].finish - 1e-9);
    sum_tight += tight[i].finish;
    sum_loose += loose[i].finish;
  }
  EXPECT_GT(sum_tight, sum_loose + 1e-6);
}

TEST(SharedMasterQos, GapResumePaysTheRestartSurcharge) {
  // Three jobs, two subsets, SRPT with a restart fraction: the long job
  // loses its subset to a shorter newcomer, resumes after a gap, and the
  // surcharge lands on its record.
  const Platform plat = Platform::homogeneous(2, 0.2);
  const auto jobs = qos_stream({{0, 0.0, 60.0, 1.0},
                                {1, 0.0, 60.0, 1.0},
                                {2, 1.0, 6.0, 1.0}});
  const qos::Server server(plat, qos_options(2, 4, 0.5));
  qos::SrptPolicy srpt;
  const auto records = server.run(jobs, srpt);
  // The short job jumps a queue of two half-done long jobs; whichever
  // long job yielded resumed with a gap and was charged.
  std::size_t preempted = 0;
  double restart_time = 0.0;
  for (const qos::JobRecord& record : records) {
    preempted += record.preemptions;
    restart_time += record.restart_time;
  }
  EXPECT_GE(preempted, 1u);
  EXPECT_GT(restart_time, 0.0);
  // With free restarts the same schedule charges nothing.
  const qos::Server free_restarts(plat, qos_options(2, 4, 0.0));
  qos::SrptPolicy srpt2;
  const auto free_records = free_restarts.run(jobs, srpt2);
  for (const qos::JobRecord& record : free_records) {
    EXPECT_DOUBLE_EQ(record.restart_time, 0.0);
  }
}

TEST(SharedMasterQos, ConcurrencyClampsToThePlatform) {
  const Platform plat = Platform::homogeneous(3, 1.0);
  const auto jobs = qos_stream({{0, 0.0, 30.0, 1.0},
                                {1, 0.0, 20.0, 1.0},
                                {2, 0.0, 10.0, 1.0},
                                {3, 0.0, 15.0, 1.0}});
  const qos::Server server(plat, qos_options(64, 2, 0.0));
  qos::FcfsPolicy fcfs;
  const auto records = server.run(jobs, fcfs);
  for (const qos::JobRecord& record : records) {
    EXPECT_TRUE(record.admitted);
    EXPECT_GT(record.finish, record.dispatch);
  }
}

TEST(SharedMasterQos, RejectsZeroConcurrency) {
  const Platform plat = Platform::homogeneous(2);
  qos::ServerOptions options;
  options.concurrency = 0;
  EXPECT_THROW((void)qos::Server(plat, options), util::PreconditionError);
}

// --- online vs qos: the evidence a merge of the two servers rests on ------

/// bench_contention's traffic class `index` (alpha = index + 1) at its
/// committed configuration: 120 jobs targeted at load factor 0.7 against
/// the class's exclusive-service capacity, default seed + index —
/// regenerated exactly as the bench does. A larger `expected_jobs`
/// continues the same stream; its loads are continuous, so pairwise
/// distinct.
std::vector<Job> contention_stream(const Platform& plat, std::size_t index,
                                   double expected_jobs = 120.0) {
  online::JobMix mix;
  mix.load_lo = 50.0;
  mix.load_hi = 150.0;
  mix.alphas = {static_cast<double>(index + 1)};
  mix.alpha_weights = {1.0};
  const double rate = 0.7 / online::mean_predicted_makespan(mix, plat);
  util::Rng rng(util::Rng::kDefaultSeed + index);
  return online::PoissonArrivals(rate, mix).generate(expected_jobs / rate,
                                                     rng);
}

TEST(SharedMasterDifferential, FairShareMatchesAtomicFcfsQosBitForBit) {
  // online fair share on k slots of a shared master, and the qos server
  // at concurrency k with FCFS, atomic service (rounds = 1), free
  // restarts (rho = 0) and admit-all: both carve the same interleaved
  // subsets, pick the oldest waiting job for the lowest idle slot,
  // allocate it by the same nonlinear solve, and replay it through one
  // sim::SharedMasterPeriod per busy period. Every job's dispatch, finish
  // and compute time must agree bit for bit on both contention streams.
  // The third stream has more than 2 × InstallmentSolver::kMemoEntries
  // distinct loads, so the qos server's subset schedule map clears at
  // least twice on the way.
  const Platform plat = Platform::two_class(8, 1.0, 4.0);
  constexpr std::size_t kSlots = 4;
  constexpr double kCapacity = 2.0;
  constexpr std::size_t kClearing = 2 * qos::InstallmentSolver::kMemoEntries;
  for (const auto& [index, expected_jobs] :
       {std::pair<std::size_t, double>{0, 120.0}, {1, 120.0}, {1, 8600.0}}) {
    SCOPED_TRACE("alpha = " + std::to_string(index + 1) + ", ~" +
                 std::to_string(expected_jobs) + " jobs");
    const std::vector<Job> jobs =
        contention_stream(plat, index, expected_jobs);
    ASSERT_GE(jobs.size(), 100u);
    if (expected_jobs > 120.0) {
      std::vector<double> loads;
      for (const Job& job : jobs) loads.push_back(job.load);
      std::sort(loads.begin(), loads.end());
      const auto distinct = static_cast<std::size_t>(
          std::unique(loads.begin(), loads.end()) - loads.begin());
      ASSERT_GT(distinct, kClearing);
    }

    online::ServerOptions online_options;
    online_options.comm = sim::CommModelKind::kBoundedMultiport;
    online_options.capacity = kCapacity;
    online_options.master = MasterMode::kSharedMaster;
    const online::FairShareScheduler fair(kSlots);
    const auto served =
        online::Server(plat, online_options).run(jobs, fair);

    qos::ServerOptions qos_opts = qos_options(kSlots, 1, 0.0, kCapacity);
    qos::FcfsPolicy fcfs;
    const auto records = qos::Server(plat, qos_opts).run(jobs, fcfs);

    ASSERT_EQ(served.size(), records.size());
    bool overlapped = false;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(records[i].admitted) << "job " << i;
      EXPECT_EQ(served[i].dispatch, records[i].dispatch) << "job " << i;
      EXPECT_EQ(served[i].finish, records[i].finish) << "job " << i;
      EXPECT_EQ(served[i].compute_time, records[i].compute_time)
          << "job " << i;
      if (i > 0 && served[i].dispatch < served[i - 1].finish) {
        overlapped = true;
      }
    }
    // The streams must exercise real contention, not single-job periods.
    EXPECT_TRUE(overlapped);
  }
}

TEST(SharedMasterDifferential, FcfsMatchesAtomicFcfsQosAtConcurrencyOne) {
  // online FCFS (the base Scheduler: one job at a time on the whole
  // platform) and the qos server at concurrency 1 with FCFS, atomic
  // service (rounds = 1), free restarts (rho = 0) and admit-all serve the
  // same jobs in the same order through the same allocation, so every
  // dispatch and finish agrees bit for bit under each comm model.
  // compute_time agrees only to rounding: the qos solver sums w·X^alpha
  // per worker in worker order, while online sums compute_end −
  // compute_start over the chunks in completion order (at most 6.9e-16
  // relative on this stream).
  const Platform plat = Platform::two_class(8, 1.0, 4.0);
  online::JobMix mix;
  mix.alphas = {1.0, 2.0};
  mix.alpha_weights = {0.5, 0.5};
  for (const sim::CommModelKind comm :
       {sim::CommModelKind::kParallelLinks, sim::CommModelKind::kOnePort,
        sim::CommModelKind::kBoundedMultiport}) {
    SCOPED_TRACE(sim::to_string(comm));
    const double capacity =
        comm == sim::CommModelKind::kBoundedMultiport ? 2.0 : kInf;
    const double rate = 0.9 / online::mean_predicted_makespan(mix, plat, comm);
    util::Rng rng(util::Rng::kDefaultSeed);
    const std::vector<Job> jobs =
        online::PoissonArrivals(rate, mix).generate(2000.0 / rate, rng);
    ASSERT_GE(jobs.size(), 1000u);

    online::ServerOptions online_options;
    online_options.comm = comm;
    online_options.capacity = capacity;
    const online::Scheduler fcfs;
    const auto served = online::Server(plat, online_options).run(jobs, fcfs);

    qos::ServerOptions qos_opts = qos_options(1, 1, 0.0, capacity);
    qos_opts.service.comm = comm;
    qos::FcfsPolicy policy;
    const auto records = qos::Server(plat, qos_opts).run(jobs, policy);

    ASSERT_EQ(served.size(), records.size());
    bool queued = false;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(records[i].admitted) << "job " << i;
      EXPECT_EQ(served[i].dispatch, records[i].dispatch) << "job " << i;
      EXPECT_EQ(served[i].finish, records[i].finish) << "job " << i;
      EXPECT_NEAR(served[i].compute_time, records[i].compute_time,
                  1e-14 * served[i].compute_time)
          << "job " << i;
      if (served[i].dispatch > jobs[i].arrival) queued = true;
    }
    // At load 0.9 jobs must queue, or FCFS order is never tested.
    EXPECT_TRUE(queued);
  }
}

}  // namespace
}  // namespace nldl
