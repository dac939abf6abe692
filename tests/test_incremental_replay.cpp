// Incremental shared-master replay vs the full-replay reference.
//
// SharedMasterPeriod's incremental mode (checkpointed settled prefix +
// speculative tail drain) must be BIT-identical to re-simulating the
// whole busy period from scratch — after every replay, for every owner,
// under every communication model, on randomized dispatch sequences. The
// end-to-end tests pin the same identity through online::Server and
// qos::Server with the incremental_replay option flipped.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/arrivals.hpp"
#include "online/scheduler.hpp"
#include "online/server.hpp"
#include "platform/platform.hpp"
#include "qos/policy.hpp"
#include "qos/server.hpp"
#include "sim/comm_model.hpp"
#include "sim/engine.hpp"
#include "sim/multiplex.hpp"
#include "util/rng.hpp"

namespace nldl {
namespace {

using online::Job;
using online::JobStats;
using platform::Platform;

std::vector<std::unique_ptr<sim::CommModel>> all_models() {
  std::vector<std::unique_ptr<sim::CommModel>> models;
  models.push_back(std::make_unique<sim::ParallelLinksModel>());
  models.push_back(std::make_unique<sim::OnePortModel>());
  models.push_back(std::make_unique<sim::BoundedMultiportModel>(2.0, 2));
  return models;
}

/// One randomized owner dispatch: 1–4 chunks on distinct random workers.
std::vector<sim::ChunkAssignment> random_chunks(util::Rng& rng,
                                                std::size_t p) {
  const std::size_t count = static_cast<std::size_t>(rng.uniform_int(1, 4));
  std::vector<std::size_t> workers(p);
  std::iota(workers.begin(), workers.end(), std::size_t{0});
  rng.shuffle(workers);
  std::vector<sim::ChunkAssignment> chunks;
  for (std::size_t i = 0; i < count && i < p; ++i) {
    chunks.push_back({workers[i], rng.uniform(0.5, 5.0)});
  }
  return chunks;
}

// --- period-level bitwise identity ----------------------------------------

TEST(IncrementalReplay, MatchesFullReplayAfterEveryDispatch) {
  const Platform plat = Platform::two_class(6, 2.0, 2.5);
  const sim::Engine engine(plat, {});
  std::vector<std::size_t> worker_map(plat.size());
  std::iota(worker_map.begin(), worker_map.end(), std::size_t{0});

  for (const auto& model : all_models()) {
    // Short periods compact too (finalized chunks are the majority): the
    // oracle must see renumbered chunks, not only the long-period test.
    obs::TraceRecorder trace;
    for (int rep = 0; rep < 6; ++rep) {
      util::Rng rng(1000 + static_cast<std::uint64_t>(rep));
      sim::SharedMasterPeriod full(engine, *model, {false});
      sim::SharedMasterPeriod incremental(engine, *model, {true});
      incremental.set_trace(&trace);
      EXPECT_FALSE(full.incremental());
      EXPECT_TRUE(incremental.incremental());

      double now = 3.0;  // periods may anchor anywhere, not just t = 0
      for (int d = 0; d < 14; ++d) {
        if (rng.uniform() < 0.7) now += rng.uniform(0.0, 12.0);
        const double alpha = rng.uniform() < 0.5 ? 1.0 : 2.0;
        const auto chunks = random_chunks(rng, plat.size());
        const std::size_t a = full.dispatch(now, alpha, chunks, worker_map);
        const std::size_t b =
            incremental.dispatch(now, alpha, chunks, worker_map);
        ASSERT_EQ(a, b);
        full.replay();
        incremental.replay();
        ASSERT_EQ(full.owners(), incremental.owners());
        for (std::size_t owner = 0; owner < full.owners(); ++owner) {
          EXPECT_EQ(full.finish(owner), incremental.finish(owner))
              << "rep " << rep << " dispatch " << d << " owner " << owner;
          EXPECT_EQ(full.busy(owner), incremental.busy(owner))
              << "rep " << rep << " dispatch " << d << " owner " << owner;
        }
      }
    }
    EXPECT_FALSE(trace.of_kind(obs::EventKind::kCompact).empty());
  }
}

TEST(IncrementalReplay, SettledOwnersKeepTotalsFrozen) {
  // Once simulated time passes an owner's finish, later dispatches must
  // not move it — and under incremental replay the settled totals are
  // accumulated exactly once, so any double-count would show here.
  const Platform plat = Platform::homogeneous(4, 1.0);
  const sim::Engine engine(plat, {});
  const sim::ParallelLinksModel model;
  std::vector<std::size_t> worker_map{0, 1, 2, 3};

  sim::SharedMasterPeriod period(engine, model, {true});
  const std::size_t first =
      period.dispatch(0.0, 1.0, {{0, 2.0}, {1, 2.0}}, worker_map);
  period.replay();
  const double settled_finish = period.finish(first);
  const double settled_busy = period.busy(first);
  EXPECT_GT(settled_finish, 0.0);

  // Dispatch long after the first owner finished: its totals are frozen.
  double now = settled_finish + 5.0;
  for (int d = 0; d < 4; ++d) {
    (void)period.dispatch(now, 2.0, {{2, 3.0}, {3, 1.0}}, worker_map);
    period.replay();
    EXPECT_EQ(period.finish(first), settled_finish) << "dispatch " << d;
    EXPECT_EQ(period.busy(first), settled_busy) << "dispatch " << d;
    now += 2.0;
  }
}

TEST(IncrementalReplay, ClearedPeriodReplaysLikeFresh) {
  const Platform plat = Platform::two_class(4, 1.0, 2.0);
  const sim::Engine engine(plat, {});
  const sim::BoundedMultiportModel model(1.5, 2);
  std::vector<std::size_t> worker_map{0, 1, 2, 3};
  util::Rng rng(555);

  sim::SharedMasterPeriod reused(engine, model, {true});
  for (int period_index = 0; period_index < 3; ++period_index) {
    sim::SharedMasterPeriod fresh(engine, model, {true});
    double now = rng.uniform(0.0, 50.0);
    for (int d = 0; d < 6; ++d) {
      const auto chunks = random_chunks(rng, plat.size());
      (void)reused.dispatch(now, 2.0, chunks, worker_map);
      (void)fresh.dispatch(now, 2.0, chunks, worker_map);
      reused.replay();
      fresh.replay();
      for (std::size_t owner = 0; owner < fresh.owners(); ++owner) {
        EXPECT_EQ(reused.finish(owner), fresh.finish(owner));
        EXPECT_EQ(reused.busy(owner), fresh.busy(owner));
      }
      now += rng.uniform(0.0, 4.0);
    }
    reused.clear();
    EXPECT_TRUE(reused.empty());
  }
  reused.shrink();  // explicit shrink keeps the period usable
  (void)reused.dispatch(0.0, 1.0, {{0, 1.0}}, worker_map);
  reused.replay();
  EXPECT_EQ(reused.owners(), 1U);
}

// --- end-to-end: the servers with the flag flipped ------------------------

void expect_identical_stats(const std::vector<JobStats>& a,
                            const std::vector<JobStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dispatch, b[i].dispatch) << "job " << i;
    EXPECT_EQ(a[i].finish, b[i].finish) << "job " << i;
    EXPECT_EQ(a[i].slot, b[i].slot) << "job " << i;
    EXPECT_EQ(a[i].compute_time, b[i].compute_time) << "job " << i;
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

TEST(IncrementalReplay, OnlineServerMetricsIdentity) {
  const Platform plat = Platform::two_class(8, 1.0, 3.0);
  const auto jobs = poisson_stream(0.06, 1000.0, 42);
  ASSERT_GT(jobs.size(), 20U);
  const online::FairShareScheduler fair(4);
  for (const sim::CommModelKind comm :
       {sim::CommModelKind::kParallelLinks, sim::CommModelKind::kOnePort,
        sim::CommModelKind::kBoundedMultiport}) {
    online::ServerOptions options;
    options.comm = comm;
    options.capacity = 2.0;
    options.master = online::MasterMode::kSharedMaster;
    options.record_isolated = false;
    options.incremental_replay = true;
    obs::MetricsRegistry fast_cost;
    const auto fast =
        online::Server(plat, options).run(jobs, fair, &fast_cost);

    options.incremental_replay = false;
    obs::MetricsRegistry slow_cost;
    const auto slow =
        online::Server(plat, options).run(jobs, fair, &slow_cost);

    expect_identical_stats(fast, slow);
    // Same decision sequence on both sides...
    EXPECT_EQ(fast_cost.counter_value("replay.replays"),
              slow_cost.counter_value("replay.replays"));
    EXPECT_EQ(fast_cost.counter_value("replay.busy_periods"),
              slow_cost.counter_value("replay.busy_periods"));
    EXPECT_GT(fast_cost.counter_value("replay.busy_periods"), 0U);
    // ...but the incremental side simulated strictly fewer chunk events
    // (the contended stream has multi-dispatch busy periods).
    EXPECT_LT(fast_cost.counter_value("replay.engine_events"),
              slow_cost.counter_value("replay.engine_events"));
  }
}

TEST(IncrementalReplay, QosServerMetricsIdentity) {
  const Platform plat = Platform::homogeneous(6, 0.5);
  const auto jobs = poisson_stream(0.05, 600.0, 7);
  ASSERT_GT(jobs.size(), 10U);

  for (const std::size_t concurrency : {2UL, 3UL}) {
    qos::ServerOptions options;
    options.service.comm = sim::CommModelKind::kBoundedMultiport;
    options.service.capacity = 1.5;
    options.service.plan.rounds = 3;
    options.service.plan.restart_load_fraction = 0.3;
    options.admission.mode = qos::AdmissionMode::kAdmitAll;
    options.concurrency = concurrency;
    options.incremental_replay = true;

    qos::SrptPolicy fast_policy;
    obs::MetricsRegistry fast_cost;
    const auto fast =
        qos::Server(plat, options).run(jobs, fast_policy, &fast_cost);

    options.incremental_replay = false;
    qos::SrptPolicy slow_policy;
    obs::MetricsRegistry slow_cost;
    const auto slow =
        qos::Server(plat, options).run(jobs, slow_policy, &slow_cost);

    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].admitted, slow[i].admitted) << "job " << i;
      EXPECT_EQ(fast[i].dispatch, slow[i].dispatch) << "job " << i;
      EXPECT_EQ(fast[i].finish, slow[i].finish) << "job " << i;
      EXPECT_EQ(fast[i].service_time, slow[i].service_time) << "job " << i;
      EXPECT_EQ(fast[i].compute_time, slow[i].compute_time) << "job " << i;
      EXPECT_EQ(fast[i].restart_time, slow[i].restart_time) << "job " << i;
      EXPECT_EQ(fast[i].preemptions, slow[i].preemptions) << "job " << i;
    }
    EXPECT_EQ(fast_cost.counter_value("replay.replays"),
              slow_cost.counter_value("replay.replays"));
    EXPECT_LE(fast_cost.counter_value("replay.engine_events"),
              slow_cost.counter_value("replay.engine_events"));
  }
}

TEST(IncrementalReplay, LongPeriodCompactsAndStaysIdentical) {
  // A long period compacts whenever its finalized chunks are at least
  // half of the settled run (sim/multiplex.cpp), so it drops its settled
  // history and renumbers its chunks over and over under every model;
  // every estimate must still match the O(n²) reference, which never
  // compacts.
  const Platform plat = Platform::homogeneous(4, 1.0);
  const sim::Engine engine(plat, {});
  std::vector<std::size_t> worker_map{0, 1, 2, 3};

  for (const auto& model : all_models()) {
    util::Rng rng(77);
    sim::SharedMasterPeriod full(engine, *model, {false});
    sim::SharedMasterPeriod compacting(engine, *model, {true});
    obs::TraceRecorder trace;
    compacting.set_trace(&trace);
    double now = 0.0;
    for (int d = 0; d < 600; ++d) {
      now += rng.uniform(4.0, 12.0);
      const double alpha = rng.uniform() < 0.5 ? 1.0 : 2.0;
      const auto chunks = random_chunks(rng, plat.size());
      (void)full.dispatch(now, alpha, chunks, worker_map);
      (void)compacting.dispatch(now, alpha, chunks, worker_map);
      full.replay();
      compacting.replay();
      for (std::size_t owner = 0; owner < full.owners(); ++owner) {
        ASSERT_EQ(full.finish(owner), compacting.finish(owner))
            << "dispatch " << d << " owner " << owner;
        ASSERT_EQ(full.busy(owner), compacting.busy(owner))
            << "dispatch " << d << " owner " << owner;
      }
    }
    EXPECT_GE(trace.of_kind(obs::EventKind::kCompact).size(), 100U);
    EXPECT_LT(compacting.events(), full.events());
  }
}

TEST(IncrementalReplay, DispatchBeforePeriodAnchorThrows) {
  const Platform plat = Platform::homogeneous(2, 1.0);
  const sim::Engine engine(plat, {});
  const sim::ParallelLinksModel model;
  std::vector<std::size_t> worker_map{0, 1};
  sim::SharedMasterPeriod period(engine, model, {true});
  (void)period.dispatch(10.0, 1.0, {{0, 1.0}}, worker_map);
  EXPECT_THROW(
      (void)period.dispatch(5.0, 1.0, {{1, 1.0}}, worker_map),
      util::PreconditionError);
  EXPECT_THROW((void)period.finish(7), util::PreconditionError);
}

}  // namespace
}  // namespace nldl
