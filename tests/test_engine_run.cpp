// Unit tests for sim::EngineRun — the resumable, copyable run-state
// object behind Engine::run. The contract under test is bit-identity:
// pausing at barriers, appending at barriers, and checkpoint-copying must
// all reproduce the uninterrupted batch run to the last bit, under all
// three communication models on randomized schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "sim/comm_model.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nldl::sim {
namespace {

using platform::Platform;

constexpr double kInf = std::numeric_limits<double>::infinity();

void expect_spans_identical(const std::vector<ChunkSpan>& a,
                            const std::vector<ChunkSpan>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].worker, b[i].worker) << "span " << i;
    EXPECT_EQ(a[i].size, b[i].size) << "span " << i;
    EXPECT_EQ(a[i].comm_start, b[i].comm_start) << "span " << i;
    EXPECT_EQ(a[i].comm_end, b[i].comm_end) << "span " << i;
    EXPECT_EQ(a[i].compute_start, b[i].compute_start) << "span " << i;
    EXPECT_EQ(a[i].compute_end, b[i].compute_end) << "span " << i;
  }
}

void expect_results_identical(const SimResult& a, const SimResult& b) {
  expect_spans_identical(a.spans, b.spans);
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.worker_finish.size(), b.worker_finish.size());
  for (std::size_t w = 0; w < a.worker_finish.size(); ++w) {
    EXPECT_EQ(a.worker_finish[w], b.worker_finish[w]) << "worker " << w;
    EXPECT_EQ(a.worker_compute_time[w], b.worker_compute_time[w])
        << "worker " << w;
    EXPECT_EQ(a.worker_comm_time[w], b.worker_comm_time[w])
        << "worker " << w;
  }
}

/// A random multi-round schedule with non-decreasing release times and
/// mixed per-chunk alphas — the dispatch-order shape SharedMasterPeriod
/// produces, which is also what append() requires (releases >= clock).
std::vector<ChunkAssignment> random_schedule(util::Rng& rng, std::size_t p,
                                             std::size_t chunks) {
  std::vector<ChunkAssignment> schedule;
  schedule.reserve(chunks);
  double release = 0.0;
  for (std::size_t i = 0; i < chunks; ++i) {
    if (rng.uniform() < 0.4) release += rng.uniform(0.0, 3.0);
    ChunkAssignment chunk;
    chunk.worker = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(p) - 1));
    chunk.size = rng.uniform(0.2, 4.0);
    chunk.release = release;
    chunk.alpha = rng.uniform() < 0.5 ? 1.0 : rng.uniform(1.0, 2.0);
    schedule.push_back(chunk);
  }
  return schedule;
}

std::vector<std::unique_ptr<CommModel>> all_models() {
  std::vector<std::unique_ptr<CommModel>> models;
  models.push_back(std::make_unique<ParallelLinksModel>());
  models.push_back(std::make_unique<OnePortModel>());
  models.push_back(std::make_unique<BoundedMultiportModel>(1.5, 2));
  return models;
}

TEST(EngineRun, DrainMatchesBatchRun) {
  const Platform plat = Platform::two_class(6, 2.0, 2);
  const Engine engine(plat, {1.3});
  util::Rng rng(2024);
  for (const auto& model : all_models()) {
    const auto schedule = random_schedule(rng, plat.size(), 40);
    const SimResult batch = engine.run(schedule, *model);

    EngineRun run(engine, *model);
    for (const ChunkAssignment& chunk : schedule) (void)run.append(chunk);
    run.drain();
    EXPECT_TRUE(run.drained());
    EXPECT_EQ(run.makespan(), batch.makespan);
    expect_results_identical(run.take_result(), batch);
  }
}

TEST(EngineRun, StagedAdvanceIsBitIdenticalToSingleDrain) {
  const Platform plat = Platform::two_class(6, 3.0, 2);
  const Engine engine(plat, {1.5});
  util::Rng rng(77);
  for (const auto& model : all_models()) {
    for (int rep = 0; rep < 10; ++rep) {
      const auto schedule = random_schedule(rng, plat.size(), 30);
      const SimResult batch = engine.run(schedule, *model);

      // Advance through a ladder of random barriers (some between
      // events, some past the makespan) before the final drain.
      EngineRun run(engine, *model);
      for (const ChunkAssignment& chunk : schedule) (void)run.append(chunk);
      double barrier = 0.0;
      for (int step = 0; step < 7; ++step) {
        barrier += rng.uniform(0.0, batch.makespan / 4.0);
        run.advance_to(barrier);
        EXPECT_GE(run.clock(), std::min(barrier, run.clock()));
      }
      run.drain();
      expect_results_identical(run.take_result(), batch);
    }
  }
}

TEST(EngineRun, AppendAtBarrierMatchesUpFrontSchedule) {
  const Platform plat = Platform::two_class(6, 2.5, 2);
  const Engine engine(plat, {1.2});
  util::Rng rng(4242);
  for (const auto& model : all_models()) {
    for (int rep = 0; rep < 10; ++rep) {
      const auto schedule = random_schedule(rng, plat.size(), 32);
      const SimResult batch = engine.run(schedule, *model);

      // Feed the same schedule incrementally: advance to each release
      // barrier, then append the chunks released there — the
      // SharedMasterPeriod dispatch pattern.
      EngineRun run(engine, *model);
      std::size_t i = 0;
      while (i < schedule.size()) {
        const double barrier = schedule[i].release;
        run.advance_to(barrier);
        while (i < schedule.size() && schedule[i].release == barrier) {
          (void)run.append(schedule[i]);
          ++i;
        }
      }
      run.drain();
      expect_results_identical(run.take_result(), batch);
    }
  }
}

TEST(EngineRun, CheckpointCopyResumesBitIdentically) {
  const Platform plat = Platform::two_class(4, 2.0, 1);
  const Engine engine(plat, {1.4});
  util::Rng rng(99);
  for (const auto& model : all_models()) {
    const auto schedule = random_schedule(rng, plat.size(), 24);
    const SimResult batch = engine.run(schedule, *model);

    EngineRun persistent(engine, *model);
    for (const ChunkAssignment& chunk : schedule) {
      (void)persistent.append(chunk);
    }
    persistent.advance_to(batch.makespan / 3.0);

    // Drain a checkpoint copy; the persistent run must be unaffected and
    // both trajectories must equal the batch run.
    EngineRun scratch = persistent;
    scratch.drain();
    expect_results_identical(scratch.take_result(), batch);

    persistent.drain();
    expect_results_identical(persistent.take_result(), batch);
  }
}

TEST(EngineRun, CompletionHookSeesEveryChunkOnce) {
  const Platform plat = Platform::homogeneous(3, 1.0);
  const Engine engine(plat);
  const ParallelLinksModel model;
  util::Rng rng(7);
  const auto schedule = random_schedule(rng, plat.size(), 20);

  std::vector<int> seen(schedule.size(), 0);
  double last_comm_end = 0.0;
  bool ordered = true;
  const auto hook = [&](std::size_t chunk, const ChunkSpan& span) {
    ++seen[chunk];
    if (span.comm_end < last_comm_end) ordered = false;
    last_comm_end = span.comm_end;
  };
  EngineRun run(engine, model);
  for (const ChunkAssignment& chunk : schedule) (void)run.append(chunk);
  run.drain(ChunkCompletionRef(hook));
  for (const int count : seen) EXPECT_EQ(count, 1);
  EXPECT_TRUE(ordered) << "hook must fire in event order";
}

TEST(EngineRun, AdvancePastBarrierIsNoOpAndClockAdvances) {
  const Platform plat = Platform::homogeneous(2, 1.0);
  const Engine engine(plat);
  const ParallelLinksModel model;
  EngineRun run(engine, model);
  run.advance_to(5.0);
  EXPECT_EQ(run.clock(), 5.0);  // empty run: the clock still advances
  run.advance_to(2.0);          // a barrier in the past is a no-op
  EXPECT_EQ(run.clock(), 5.0);
  // Appends before the clock are rejected; at the clock they are legal.
  EXPECT_THROW((void)run.append({0, 1.0, 4.0}), util::PreconditionError);
  (void)run.append({0, 1.0, 5.0});
  run.drain();
  EXPECT_TRUE(run.drained());
  EXPECT_EQ(run.makespan(), 7.0);  // 5 (release) + 1 (comm) + 1 (compute)
}

TEST(EngineRun, EventsCountMonotoneAndResetKeepsTally) {
  const Platform plat = Platform::homogeneous(2, 1.0);
  const Engine engine(plat);
  const ParallelLinksModel model;
  EngineRun run(engine, model);
  (void)run.append({0, 1.0});
  (void)run.append({1, 2.0});
  run.drain();
  const std::uint64_t after_first = run.events();
  EXPECT_GT(after_first, 0U);
  run.reset();
  EXPECT_EQ(run.clock(), 0.0);
  EXPECT_EQ(run.chunks(), 0U);
  EXPECT_EQ(run.events(), after_first);  // lifetime telemetry survives
  (void)run.append({0, 1.0});
  run.drain();
  EXPECT_GT(run.events(), after_first);
}

TEST(EngineRun, ResetAndShrinkReuseProducesIdenticalResults) {
  const Platform plat = Platform::two_class(4, 2.0, 1);
  const Engine engine(plat, {1.3});
  const BoundedMultiportModel model(2.0, 3);
  util::Rng rng(1234);
  const auto schedule = random_schedule(rng, plat.size(), 25);
  const SimResult batch = engine.run(schedule, model);

  EngineRun run(engine, model);
  for (int pass = 0; pass < 3; ++pass) {
    run.reset();
    if (pass == 2) run.shrink();
    for (const ChunkAssignment& chunk : schedule) (void)run.append(chunk);
    run.drain();
    expect_results_identical(run.take_result(), batch);
  }
}

TEST(EngineRun, CompactMidRunIsBitIdentical) {
  // compact() drops finalized chunks and renumbers the rest; the event
  // trajectory (collected through completion hooks and mapped back to
  // original schedule positions) must match the uninterrupted run
  // exactly, under every model, at random compaction points.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const Platform plat = Platform::two_class(6, 2.0, 1);
  const Engine engine(plat, {1.4});

  for (const auto& model : all_models()) {
    util::Rng rng(4242);
    const auto schedule = random_schedule(rng, plat.size(), 40);
    const SimResult batch = engine.run(schedule, *model);

    EngineRun run(engine, *model);
    // mine[engine chunk idx] -> original schedule position, maintained
    // across renumberings.
    std::vector<std::size_t> mine;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      (void)run.append(schedule[i]);
      mine.push_back(i);
    }
    std::vector<ChunkSpan> spans(schedule.size());
    const auto record = [&](std::size_t chunk, const ChunkSpan& span) {
      spans[mine[chunk]] = span;
    };

    std::vector<std::size_t> remap;
    double barrier = 0.0;
    std::size_t total_dropped = 0;
    while (!run.drained()) {
      barrier += rng.uniform(0.5, 4.0);
      run.advance_to(barrier, ChunkCompletionRef(record));
      total_dropped += run.compact(remap);
      std::vector<std::size_t> next_mine(run.chunks());
      for (std::size_t old = 0; old < remap.size(); ++old) {
        if (remap[old] != kNone) next_mine[remap[old]] = mine[old];
      }
      mine = std::move(next_mine);
    }
    run.drain(ChunkCompletionRef(record));
    EXPECT_GT(total_dropped, 0U);
    EXPECT_EQ(run.chunks(), 0U);  // everything finalized, then dropped
    expect_spans_identical(spans, batch.spans);
    EXPECT_EQ(run.makespan(), batch.makespan);
  }
}

// --- the hot path's power rule and the one-call single-round load -----------

/// The comm models a generated schedule runs under: both discrete models,
/// and bounded multiport with and without a concurrency cap.
std::vector<std::unique_ptr<CommModel>> fast_path_models() {
  std::vector<std::unique_ptr<CommModel>> models;
  models.push_back(std::make_unique<ParallelLinksModel>());
  models.push_back(std::make_unique<OnePortModel>());
  models.push_back(std::make_unique<BoundedMultiportModel>(1.75));
  models.push_back(std::make_unique<BoundedMultiportModel>(1.75, 2));
  return models;
}

/// A seeded platform whose neighbouring workers are often identical, so
/// equal chunks on them finish together.
Platform generated_platform(util::Rng& rng) {
  const auto p = static_cast<std::size_t>(rng.uniform_int(2, 8));
  std::vector<platform::Processor> workers;
  for (std::size_t i = 0; i < p; ++i) {
    if (i > 0 && rng.uniform() < 0.5) {
      workers.push_back(workers.back());
      continue;
    }
    workers.push_back({rng.uniform(0.2, 3.0), rng.uniform(0.1, 4.0)});
  }
  return Platform(std::move(workers));
}

/// A seeded multiplexed schedule in release order: jobs of one to p
/// chunks to neighbouring workers, each job one size (drawn from a few
/// values, zero among them, so sizes repeat across jobs) and one
/// per-chunk alpha from {0 (the engine default), 1, 1.5, 2, 3}, released
/// together; some jobs share a release.
std::vector<ChunkAssignment> multiplexed_schedule(util::Rng& rng,
                                                  std::size_t p) {
  const std::vector<double> sizes{0.0, 0.5, 1.25, 3.0, 7.5, 0.1};
  const std::vector<double> alphas{0.0, 1.0, 1.5, 2.0, 3.0};
  const auto pick = [&rng](const std::vector<double>& values) {
    return values[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1))];
  };
  std::vector<ChunkAssignment> schedule;
  double release = 0.0;
  const auto jobs = rng.uniform_int(4, 14);
  for (std::int64_t job = 0; job < jobs; ++job) {
    if (rng.uniform() < 0.6) release += rng.uniform(0.0, 4.0);
    const double size =
        rng.uniform() < 0.8 ? pick(sizes) : rng.uniform(0.0, 5.0);
    const double alpha = pick(alphas);
    const auto first = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(p) - 1));
    const auto width = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(p - first)));
    for (std::size_t w = first; w < first + width; ++w) {
      schedule.push_back({w, size, release, alpha});
    }
  }
  return schedule;
}

TEST(EngineRun, FastPathsMatchTheCostFormulaOnGeneratedSchedules) {
  // Every finalized span costs w_i · std::pow(size, alpha) exactly, under
  // the engine default or the chunk's own alpha, whatever the chunks
  // before it were: the worker-cost table, the alpha = 1 shortcut
  // (std::pow(x, 1) == x) and the reuse of the last std::pow result
  // change no bit. worker_compute_time is that cost summed in finish
  // order.
  std::size_t spans_checked = 0;
  std::size_t alpha_one_then_repeat = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng(seed);
    const Platform plat = generated_platform(rng);
    const std::vector<double> defaults{1.0, 1.5, 2.0, 2.5};
    const Engine engine(
        plat, {defaults[static_cast<std::size_t>(rng.uniform_int(0, 3))]});
    const std::vector<ChunkAssignment> schedule =
        multiplexed_schedule(rng, plat.size());
    const auto models = fast_path_models();
    for (std::size_t m = 0; m < models.size(); ++m) {
      const CommModel& model = *models[m];
      SCOPED_TRACE("seed " + std::to_string(seed) + ", model " +
                   std::to_string(m));
      std::vector<double> busy(plat.size(), 0.0);
      double previous_alpha = 0.0;
      double previous_size = -1.0;
      const auto check = [&](std::size_t chunk, const ChunkSpan& span) {
        const ChunkAssignment& assigned = schedule[chunk];
        const double alpha =
            assigned.alpha > 0.0 ? assigned.alpha : engine.options().alpha;
        const double cost =
            plat.worker(span.worker).w * std::pow(span.size, alpha);
        EXPECT_EQ(span.compute_end, span.compute_start + cost)
            << "chunk " << chunk << ", size " << span.size << ", alpha "
            << alpha;
        busy[span.worker] += cost;
        if (previous_alpha == 1.0 && alpha != 1.0 &&
            span.size == previous_size) {
          ++alpha_one_then_repeat;
        }
        previous_alpha = alpha;
        previous_size = span.size;
        ++spans_checked;
      };
      // Multiplexed as SharedMasterPeriod feeds a run: advance to each
      // release, then append the chunks released there.
      EngineRun run(engine, model);
      std::size_t i = 0;
      while (i < schedule.size()) {
        const double barrier = schedule[i].release;
        run.advance_to(barrier, ChunkCompletionRef(check));
        while (i < schedule.size() && schedule[i].release == barrier) {
          (void)run.append(schedule[i]);
          ++i;
        }
      }
      run.drain(ChunkCompletionRef(check));
      ASSERT_TRUE(run.drained());
      for (std::size_t w = 0; w < plat.size(); ++w) {
        EXPECT_EQ(run.worker_compute_time()[w], busy[w]) << "worker " << w;
      }
    }
  }
  EXPECT_GT(spans_checked, 3000U);
  // The streams do reach a chunk at alpha = 1 followed by an equal-sized
  // chunk at another alpha: a reuse slot that the alpha = 1 path
  // disturbed would show there.
  EXPECT_GT(alpha_one_then_repeat, 50U);
}

TEST(EngineRun, SingleRoundLoadEqualsResetPlusAppends) {
  // reset_single_round(amounts, alpha) leaves the run exactly as reset()
  // plus one append per worker would: after a previous run of another
  // shape, under every comm model, both replay to the same bits and
  // count the same events.
  const Platform plat = Platform::two_class(6, 1.0, 3.0, 0.7);
  const Engine engine(plat, {1.5});
  const auto models = fast_path_models();
  for (std::size_t m = 0; m < models.size(); ++m) {
    const CommModel& model = *models[m];
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      util::Rng rng(seed);
      std::vector<double> amounts(plat.size());
      for (double& amount : amounts) {
        amount = rng.uniform() < 0.25 ? 0.0 : rng.uniform(0.0, 20.0);
      }
      const auto previous = random_schedule(rng, plat.size(), 12);
      for (const double alpha : {0.0, 1.0, 2.0, 3.0}) {
        SCOPED_TRACE("model " + std::to_string(m) + ", seed " +
                     std::to_string(seed) + ", alpha " +
                     std::to_string(alpha));
        EngineRun loaded(engine, model);
        EngineRun appended(engine, model);
        for (EngineRun* run : {&loaded, &appended}) {
          for (const ChunkAssignment& chunk : previous) {
            (void)run->append(chunk);
          }
          run->advance_to(previous.back().release / 2.0);
        }
        const std::uint64_t loaded_before = loaded.events();
        const std::uint64_t appended_before = appended.events();
        loaded.reset_single_round(amounts, alpha);
        appended.reset();
        for (std::size_t w = 0; w < amounts.size(); ++w) {
          (void)appended.append({w, amounts[w], 0.0, alpha});
        }
        EXPECT_EQ(loaded.chunks(), appended.chunks());
        EXPECT_EQ(loaded.clock(), 0.0);
        loaded.drain();
        appended.drain();
        EXPECT_EQ(loaded.events() - loaded_before,
                  appended.events() - appended_before);
        EXPECT_EQ(loaded.makespan(), appended.makespan());
        ASSERT_EQ(loaded.worker_compute_time().size(),
                  appended.worker_compute_time().size());
        for (std::size_t w = 0; w < plat.size(); ++w) {
          EXPECT_EQ(loaded.worker_compute_time()[w],
                    appended.worker_compute_time()[w])
              << "worker " << w;
        }
        expect_results_identical(loaded.take_result(),
                                 appended.take_result());
      }
    }
  }
  // At the engine default it is Engine::run_single_round's replay.
  const std::vector<double> amounts{3.0, 0.0, 1.5, 2.0, 0.25, 4.0};
  const ParallelLinksModel links;
  EngineRun run(engine, links);
  run.reset_single_round(amounts, 0.0);
  run.drain();
  expect_results_identical(run.take_result(),
                           engine.run(single_round_schedule(amounts), links));
}

TEST(EngineRun, SingleRoundLoadValidatesLikeAppend) {
  // The same preconditions as append, plus one amount per worker, all
  // checked before the run changes.
  const Platform plat = Platform::homogeneous(3, 1.0);
  const Engine engine(plat);
  const ParallelLinksModel model;
  EngineRun run(engine, model);
  (void)run.append({1, 2.0});
  const auto unchanged = [&run] {
    EXPECT_EQ(run.chunks(), 1U);
    EXPECT_EQ(run.schedule()[0].worker, 1U);
  };
  EXPECT_THROW(run.reset_single_round({1.0, 2.0}, 2.0),
               util::PreconditionError);
  unchanged();
  EXPECT_THROW(run.reset_single_round({1.0, 2.0, 3.0, 4.0}, 2.0),
               util::PreconditionError);
  unchanged();
  EXPECT_THROW(run.reset_single_round({1.0, -0.5, 3.0}, 2.0),
               util::PreconditionError);
  unchanged();
  EXPECT_THROW(
      run.reset_single_round(
          {1.0, std::numeric_limits<double>::quiet_NaN(), 3.0}, 2.0),
      util::PreconditionError);
  unchanged();
  for (const double alpha : {0.5, 0.999, std::numeric_limits<double>::min()}) {
    EXPECT_THROW(run.reset_single_round({1.0, 2.0, 3.0}, alpha),
                 util::PreconditionError)
        << alpha;
    unchanged();
  }
  EXPECT_NO_THROW(run.reset_single_round({1.0, 0.0, 3.0}, 1.0));
  EXPECT_EQ(run.chunks(), 3U);
}

TEST(EngineRun, ValidatesAppendedChunks) {
  const Platform plat = Platform::homogeneous(2, 1.0);
  const Engine engine(plat);
  const ParallelLinksModel model;
  EngineRun run(engine, model);
  EXPECT_THROW((void)run.append({5, 1.0}), util::PreconditionError);
  EXPECT_THROW((void)run.append({0, -1.0}), util::PreconditionError);
  EXPECT_THROW((void)run.append({0, 1.0, kInf}), util::PreconditionError);
  EXPECT_THROW((void)run.append({0, 1.0, 0.0, 0.5}),
               util::PreconditionError);
  (void)run.append({0, 1.0});  // pending chunk: the run is not drained
  EXPECT_THROW((void)run.take_result(), util::PreconditionError);
  run.drain();
  EXPECT_NO_THROW((void)run.take_result());
}

}  // namespace
}  // namespace nldl::sim
