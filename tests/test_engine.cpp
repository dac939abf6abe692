// Unit tests for the event-driven simulation engine.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace nldl::sim {
namespace {

using platform::Platform;

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Engine, SingleChunkTimelineParallelLinks) {
  const Platform plat = Platform::from_speeds({2.0}, 3.0);  // c=3, w=0.5
  const Engine engine(plat);
  const SimResult result =
      engine.run({{0, 4.0}}, CommModelKind::kParallelLinks);
  ASSERT_EQ(result.spans.size(), 1U);
  const ChunkSpan& span = result.spans[0];
  EXPECT_DOUBLE_EQ(span.comm_start, 0.0);
  EXPECT_DOUBLE_EQ(span.comm_end, 12.0);
  EXPECT_DOUBLE_EQ(span.compute_start, 12.0);
  EXPECT_DOUBLE_EQ(span.compute_end, 14.0);
  EXPECT_DOUBLE_EQ(result.makespan, 14.0);
}

TEST(Engine, OnePortSerializesInScheduleOrder) {
  const Platform plat = Platform::homogeneous(2, 1.0);
  const Engine engine(plat);
  const SimResult result =
      engine.run({{0, 5.0}, {1, 5.0}}, CommModelKind::kOnePort);
  EXPECT_DOUBLE_EQ(result.spans[0].comm_start, 0.0);
  EXPECT_DOUBLE_EQ(result.spans[1].comm_start, 5.0);
  EXPECT_DOUBLE_EQ(result.makespan, 15.0);
}

TEST(Engine, MultiRoundPipelinesReceiveAndCompute) {
  const Platform plat = Platform({{1.0, 2.0}});
  const Engine engine(plat);
  const SimResult result =
      engine.run({{0, 2.0}, {0, 2.0}}, CommModelKind::kParallelLinks);
  const ChunkSpan& second = result.spans[1];
  EXPECT_DOUBLE_EQ(second.comm_start, 2.0);  // link frees after first comm
  EXPECT_DOUBLE_EQ(second.comm_end, 4.0);
  EXPECT_DOUBLE_EQ(second.compute_start, 6.0);  // CPU busy until then
  EXPECT_DOUBLE_EQ(result.makespan, 10.0);
}

TEST(Engine, NonlinearComputeCost) {
  const Platform plat = Platform({{1.0, 2.0}});
  const Engine engine(plat, EngineOptions{2.0});
  const SimResult result =
      engine.run({{0, 3.0}}, CommModelKind::kParallelLinks);
  EXPECT_DOUBLE_EQ(result.makespan, 3.0 + 2.0 * 9.0);
}

TEST(Engine, BoundedMultiportSharesCapacityFairly) {
  // Two equal transfers, master capacity 1, private caps 10 each: both run
  // at 0.5 and finish together.
  const Platform plat = Platform::homogeneous(2, 0.1);
  const Engine engine(plat);
  const SimResult result =
      engine.run({{0, 5.0}, {1, 5.0}}, BoundedMultiportModel(1.0));
  EXPECT_NEAR(result.spans[0].comm_end, 10.0, 1e-9);
  EXPECT_NEAR(result.spans[1].comm_end, 10.0, 1e-9);
}

TEST(Engine, BoundedMultiportMultiRoundSerializesPerLink) {
  // Two chunks to one worker under an uncapped master: the second transfer
  // must wait for the first (link FIFO), exactly like parallel links.
  const Platform plat = Platform::homogeneous(1, 2.0);
  const Engine engine(plat);
  const SimResult result =
      engine.run({{0, 1.0}, {0, 1.0}}, BoundedMultiportModel(kInf));
  EXPECT_DOUBLE_EQ(result.spans[0].comm_end, 2.0);
  EXPECT_DOUBLE_EQ(result.spans[1].comm_start, 2.0);
  EXPECT_DOUBLE_EQ(result.spans[1].comm_end, 4.0);
}

TEST(Engine, BoundedMultiportCapacityReleasedToSurvivors) {
  // Transfers of 2 and 6 units, capacity 2, private caps 10: both at rate
  // 1 until t=2, then the survivor takes min(10, 2) = 2.
  const Platform plat = Platform::homogeneous(2, 0.1);
  const Engine engine(plat);
  const SimResult result =
      engine.run({{0, 2.0}, {1, 6.0}}, BoundedMultiportModel(2.0));
  EXPECT_NEAR(result.spans[0].comm_end, 2.0, 1e-9);
  EXPECT_NEAR(result.spans[1].comm_end, 4.0, 1e-9);
}

TEST(Engine, BoundedMultiportConcurrencyOneIsOnePort) {
  const Platform plat = Platform::from_speeds({1.0, 2.0}, 0.5);
  const Engine engine(plat);
  const std::vector<ChunkAssignment> schedule{{1, 4.0}, {0, 2.0}};
  const SimResult one_port = engine.run(schedule, CommModelKind::kOnePort);
  const SimResult bounded =
      engine.run(schedule, BoundedMultiportModel(kInf, 1));
  ASSERT_EQ(one_port.spans.size(), bounded.spans.size());
  for (std::size_t i = 0; i < one_port.spans.size(); ++i) {
    EXPECT_EQ(one_port.spans[i].comm_start, bounded.spans[i].comm_start);
    EXPECT_EQ(one_port.spans[i].comm_end, bounded.spans[i].comm_end);
    EXPECT_EQ(one_port.spans[i].compute_end, bounded.spans[i].compute_end);
  }
}

TEST(Engine, ZeroSizeChunksCompleteInstantly) {
  const Platform plat = Platform::homogeneous(2);
  const Engine engine(plat);
  const SimResult result =
      engine.run({{0, 0.0}, {1, 3.0}}, CommModelKind::kParallelLinks);
  EXPECT_DOUBLE_EQ(result.spans[0].comm_end, 0.0);
  EXPECT_DOUBLE_EQ(result.worker_compute_time[0], 0.0);
  EXPECT_DOUBLE_EQ(result.makespan, 6.0);
}

TEST(Engine, ZeroSizeChunkBetweenTransfersKeepsLinkOrder) {
  // Worker 0 receives 2 units, then a zero chunk, then 2 more: the zero
  // chunk completes the instant the first transfer ends.
  const Platform plat = Platform::homogeneous(1, 1.0);
  const Engine engine(plat);
  const SimResult result = engine.run({{0, 2.0}, {0, 0.0}, {0, 2.0}},
                                      CommModelKind::kParallelLinks);
  EXPECT_DOUBLE_EQ(result.spans[1].comm_start, 2.0);
  EXPECT_DOUBLE_EQ(result.spans[1].comm_end, 2.0);
  EXPECT_DOUBLE_EQ(result.spans[2].comm_start, 2.0);
  EXPECT_DOUBLE_EQ(result.spans[2].comm_end, 4.0);
}

TEST(Engine, NearTyingTransfersKeepExactFinishTimes) {
  // Transfers within the fluid snapping tolerance of each other must NOT
  // be snapped together under the discrete models: each keeps its exact
  // closed-form completion instant.
  const Platform plat = Platform::homogeneous(2, 1.0);
  const Engine engine(plat);
  const double close = 1.0 + 2e-13;
  const SimResult result =
      engine.run({{0, 1.0}, {1, close}}, CommModelKind::kParallelLinks);
  EXPECT_EQ(result.spans[0].comm_end, 1.0);
  EXPECT_EQ(result.spans[1].comm_end, close);
}

TEST(Engine, SingleRoundScheduleValidatesTheOrder) {
  const std::vector<double> amounts{1.0, 2.0};
  const auto schedule = single_round_schedule(amounts, {1, 0});
  ASSERT_EQ(schedule.size(), 2U);
  EXPECT_EQ(schedule[0].worker, 1U);
  EXPECT_DOUBLE_EQ(schedule[0].size, 2.0);
  EXPECT_THROW((void)single_round_schedule(amounts, {0, 0}),
               util::PreconditionError);
  EXPECT_THROW((void)single_round_schedule(amounts, {0, 2}),
               util::PreconditionError);
  EXPECT_THROW((void)single_round_schedule(amounts, {0}),
               util::PreconditionError);
}

TEST(Engine, ZeroSizeChunkWaitsForThePortUnderOnePort) {
  // The retired simulator serialized zero-size chunks at the port like
  // any other send; the engine must too.
  const Platform plat = Platform::homogeneous(2, 1.0);
  const Engine engine(plat);
  const SimResult result =
      engine.run({{0, 5.0}, {1, 0.0}}, CommModelKind::kOnePort);
  EXPECT_DOUBLE_EQ(result.spans[1].comm_start, 5.0);
  EXPECT_DOUBLE_EQ(result.spans[1].comm_end, 5.0);
  EXPECT_DOUBLE_EQ(result.worker_finish[1], 5.0);
}

TEST(Engine, PerWorkerAccounting) {
  const Platform plat = Platform::from_speeds({1.0, 2.0});
  const Engine engine(plat);
  const SimResult result = engine.run({{0, 2.0}, {1, 4.0}, {0, 1.0}},
                                      CommModelKind::kParallelLinks);
  EXPECT_DOUBLE_EQ(result.worker_comm_time[0], 3.0);
  EXPECT_DOUBLE_EQ(result.worker_compute_time[0], 3.0);
  EXPECT_DOUBLE_EQ(result.worker_compute_time[1], 2.0);
  EXPECT_DOUBLE_EQ(result.worker_finish[0], result.spans[2].compute_end);
}

TEST(Engine, EmptyScheduleIsFree) {
  const Platform plat = Platform::homogeneous(3);
  const Engine engine(plat);
  const SimResult result = engine.run({}, CommModelKind::kParallelLinks);
  EXPECT_TRUE(result.spans.empty());
  EXPECT_DOUBLE_EQ(result.makespan, 0.0);
}

TEST(Engine, RunSingleRoundMatchesExplicitSchedule) {
  const Platform plat = Platform::from_speeds({1.0, 3.0}, 0.5);
  const Engine engine(plat);
  const ParallelLinksModel model;
  const SimResult a = engine.run_single_round({2.0, 6.0}, model);
  const SimResult b = engine.run({{0, 2.0}, {1, 6.0}}, model);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.spans[1].comm_end, b.spans[1].comm_end);
}

TEST(Engine, RejectsBadInput) {
  const Platform plat = Platform::homogeneous(1);
  const Engine engine(plat);
  EXPECT_THROW((void)engine.run({{1, 1.0}}, CommModelKind::kParallelLinks),
               util::PreconditionError);
  EXPECT_THROW((void)engine.run({{0, -1.0}}, CommModelKind::kParallelLinks),
               util::PreconditionError);
  EXPECT_THROW((void)Engine(plat, EngineOptions{0.5}),
               util::PreconditionError);
  EXPECT_THROW((void)engine.run_single_round({1.0, 1.0},
                                             ParallelLinksModel{}),
               util::PreconditionError);
}

TEST(Engine, BoundedMultiportNearTieSnapsToOneEvent) {
  // Two transfers sharing the master capacity tie in exact arithmetic but
  // differ by one rounding error in floating point: 0.1 + 0.2 vs 0.3.
  // Fair sharing leaves an O(eps) residue on the "slightly larger" one;
  // the engine's snap tolerance must complete both at the same event
  // instead of scheduling a ~1e-17-long follow-up slice.
  const Platform plat = Platform::homogeneous(2, 1.0);
  const Engine engine(plat);
  const BoundedMultiportModel model(1.0);  // each transfer runs at 1/2
  const SimResult result =
      engine.run({{0, 0.1 + 0.2}, {1, 0.3}}, model);
  ASSERT_EQ(result.spans.size(), 2U);
  EXPECT_EQ(result.spans[0].comm_end, result.spans[1].comm_end);
  EXPECT_NEAR(result.spans[0].comm_end, 0.6, 1e-9);
  EXPECT_TRUE(std::isfinite(result.makespan));
}

TEST(Engine, OnePortZeroSizeChunkHoldsItsScheduleSlot) {
  // A zero-size chunk still travels through the one-port master in
  // schedule order: it is served (instantly) before later chunks, and it
  // waits its turn behind earlier ones.
  const Platform plat = Platform::homogeneous(2, 1.0);
  const Engine engine(plat);

  // Zero chunk first: served at t=0 for free, then the big chunks.
  const SimResult zero_first =
      engine.run({{0, 0.0}, {1, 5.0}, {0, 3.0}}, CommModelKind::kOnePort);
  EXPECT_DOUBLE_EQ(zero_first.spans[0].comm_start, 0.0);
  EXPECT_DOUBLE_EQ(zero_first.spans[0].comm_end, 0.0);
  EXPECT_DOUBLE_EQ(zero_first.spans[1].comm_start, 0.0);
  EXPECT_DOUBLE_EQ(zero_first.spans[1].comm_end, 5.0);
  EXPECT_DOUBLE_EQ(zero_first.spans[2].comm_start, 5.0);
  EXPECT_DOUBLE_EQ(zero_first.spans[2].comm_end, 8.0);

  // Zero chunk second: it waits for the port even though it is free.
  const SimResult zero_second =
      engine.run({{1, 5.0}, {0, 0.0}}, CommModelKind::kOnePort);
  EXPECT_DOUBLE_EQ(zero_second.spans[0].comm_end, 5.0);
  EXPECT_DOUBLE_EQ(zero_second.spans[1].comm_start, 5.0);
  EXPECT_DOUBLE_EQ(zero_second.spans[1].comm_end, 5.0);
  // The zero-size chunk costs no compute either.
  EXPECT_DOUBLE_EQ(zero_second.worker_compute_time[0], 0.0);
  EXPECT_EQ(zero_second.idle_workers(), 1U);
}

TEST(Engine, LoadImbalanceMatchesDefinition) {
  SimResult result;
  result.worker_compute_time = {4.0, 5.0};
  EXPECT_DOUBLE_EQ(result.load_imbalance(), 0.25);
  // Imbalance is defined over the workers that computed: an unused worker
  // is counted by idle_workers(), not folded into e as +infinity.
  result.worker_compute_time = {0.0, 5.0};
  EXPECT_DOUBLE_EQ(result.load_imbalance(), 0.0);
  EXPECT_EQ(result.idle_workers(), 1U);
  result.worker_compute_time = {0.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(result.load_imbalance(), 0.25);
  EXPECT_EQ(result.idle_workers(), 1U);
  result.worker_compute_time = {5.0};
  EXPECT_DOUBLE_EQ(result.load_imbalance(), 0.0);
  EXPECT_EQ(result.idle_workers(), 0U);
}

/// Replay `schedule` through an EngineRun, handing every finalized chunk
/// to `hook`, and harvest the batch result.
SimResult run_with_hook(const Engine& engine,
                        const std::vector<ChunkAssignment>& schedule,
                        const CommModel& model, ChunkCompletionRef hook) {
  EngineRun run(engine, model);
  for (const ChunkAssignment& chunk : schedule) (void)run.append(chunk);
  run.drain(hook);
  return run.take_result();
}

TEST(Engine, CompletionHookReportsEveryChunkOnce) {
  const Platform plat = Platform::homogeneous(2, 1.0);
  const Engine engine(plat);
  // Multi-round schedule: completion (event) order differs from schedule
  // order — worker 1's first chunk finishes before worker 0's second.
  const std::vector<ChunkAssignment> schedule{
      {0, 2.0}, {1, 3.0}, {0, 4.0}, {1, 1.0}};

  std::vector<std::size_t> seen;
  std::vector<ChunkSpan> spans(schedule.size());
  const auto hook = [&](std::size_t chunk, const ChunkSpan& span) {
    seen.push_back(chunk);
    spans[chunk] = span;
  };
  const SimResult result =
      run_with_hook(engine, schedule, ParallelLinksModel(), hook);

  ASSERT_EQ(seen.size(), schedule.size());
  std::vector<std::size_t> sorted = seen;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);

  // The hook hands out the exact records that land in SimResult::spans,
  // in non-decreasing communication-completion order.
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(spans[i].worker, result.spans[i].worker);
    EXPECT_EQ(spans[i].comm_end, result.spans[i].comm_end);
    EXPECT_EQ(spans[i].compute_start, result.spans[i].compute_start);
    EXPECT_EQ(spans[i].compute_end, result.spans[i].compute_end);
  }
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LE(spans[seen[i - 1]].comm_end, spans[seen[i]].comm_end);
  }
}

TEST(Engine, CompletionHookTimestampsTheMakespan) {
  const Platform plat = Platform::from_speeds({1.0, 2.0, 4.0});
  const Engine engine(plat, {2.0});
  double finish = 0.0;
  const auto hook = [&](std::size_t, const ChunkSpan& span) {
    finish = std::max(finish, span.compute_end);
  };
  const SimResult result =
      run_with_hook(engine, single_round_schedule({10.0, 20.0, 30.0}),
                    OnePortModel(), hook);
  EXPECT_EQ(finish, result.makespan);
}

TEST(Engine, EmptyHookIsIgnored) {
  const Platform plat = Platform::homogeneous(2);
  const Engine engine(plat);
  const auto schedule = single_round_schedule({1.0, 2.0});
  const SimResult with_hook = run_with_hook(
      engine, schedule, ParallelLinksModel(), ChunkCompletionRef{});
  const SimResult without = engine.run(schedule, ParallelLinksModel());
  EXPECT_EQ(with_hook.makespan, without.makespan);
}

// --- time-released chunks -------------------------------------------------

TEST(Engine, ReleaseTimeDelaysLinkEntry) {
  // One worker, c = 1, w = 1: a chunk released at t = 5 starts its
  // transfer exactly then, even though the link was free from t = 0.
  const Platform plat = Platform::homogeneous(1, 1.0);
  const Engine engine(plat);
  const SimResult result =
      engine.run({{0, 2.0, 5.0}}, CommModelKind::kParallelLinks);
  EXPECT_DOUBLE_EQ(result.spans[0].comm_start, 5.0);
  EXPECT_DOUBLE_EQ(result.spans[0].comm_end, 7.0);
  EXPECT_DOUBLE_EQ(result.makespan, 9.0);
}

TEST(Engine, ReleasedChunkWaitsForTheLinkFifo) {
  // The second chunk is released at t = 1 but the link is busy until
  // t = 4: FIFO order holds and the transfer starts at the link-free
  // instant, not the release.
  const Platform plat = Platform::homogeneous(1, 1.0);
  const Engine engine(plat);
  const SimResult result = engine.run({{0, 4.0}, {0, 2.0, 1.0}},
                                      CommModelKind::kParallelLinks);
  EXPECT_DOUBLE_EQ(result.spans[1].comm_start, 4.0);
  EXPECT_DOUBLE_EQ(result.spans[1].comm_end, 6.0);
}

TEST(Engine, ZeroReleasesAreBitIdenticalToTheClassicSchedule) {
  // Explicit release = 0 must reproduce the default-schedule replay bit
  // for bit (the no-release path is the pre-release engine).
  const Platform plat = Platform::from_speeds({1.0, 2.0, 4.0}, 0.5);
  const Engine engine(plat, EngineOptions{2.0});
  const std::vector<ChunkAssignment> classic{
      {0, 2.0}, {1, 4.0}, {2, 1.0}, {0, 3.0}};
  std::vector<ChunkAssignment> released = classic;
  for (ChunkAssignment& chunk : released) chunk.release = 0.0;
  for (const CommModelKind kind :
       {CommModelKind::kParallelLinks, CommModelKind::kOnePort}) {
    const SimResult a = engine.run(classic, kind);
    const SimResult b = engine.run(released, kind);
    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
      EXPECT_EQ(a.spans[i].comm_start, b.spans[i].comm_start);
      EXPECT_EQ(a.spans[i].comm_end, b.spans[i].comm_end);
      EXPECT_EQ(a.spans[i].compute_end, b.spans[i].compute_end);
    }
    EXPECT_EQ(a.makespan, b.makespan);
  }
}

TEST(Engine, ReleaseIntoASharedMasterRecomputesWaterFilling) {
  // Capacity 1, private caps 10: transfer A (6 units) runs alone at rate
  // 1 until t = 2, when B (2 units) is released and the master splits
  // 0.5/0.5. B finishes at t = 6; A's remaining 2 units then run at rate
  // 1 again, ending at t = 8.
  const Platform plat = Platform::homogeneous(2, 0.1);
  const Engine engine(plat);
  const SimResult result = engine.run({{0, 6.0}, {1, 2.0, 2.0}},
                                      BoundedMultiportModel(1.0));
  EXPECT_DOUBLE_EQ(result.spans[1].comm_start, 2.0);
  EXPECT_NEAR(result.spans[1].comm_end, 6.0, 1e-9);
  EXPECT_NEAR(result.spans[0].comm_end, 8.0, 1e-9);
}

TEST(Engine, QuietGapBetweenReleasesAdvancesTime) {
  // Everything is released late: the engine must jump from an empty
  // in-flight set to the first release, serve it, go quiet again, and
  // jump to the second.
  const Platform plat = Platform::homogeneous(2, 1.0);
  const Engine engine(plat);
  const SimResult result = engine.run({{0, 1.0, 10.0}, {1, 1.0, 20.0}},
                                      CommModelKind::kParallelLinks);
  EXPECT_DOUBLE_EQ(result.spans[0].comm_start, 10.0);
  EXPECT_DOUBLE_EQ(result.spans[1].comm_start, 20.0);
  EXPECT_DOUBLE_EQ(result.makespan, 22.0);
}

TEST(Engine, ZeroSizeChunkHonorsItsRelease) {
  const Platform plat = Platform::homogeneous(1, 1.0);
  const Engine engine(plat);
  const SimResult result =
      engine.run({{0, 0.0, 3.0}}, CommModelKind::kParallelLinks);
  EXPECT_DOUBLE_EQ(result.spans[0].comm_start, 3.0);
  EXPECT_DOUBLE_EQ(result.spans[0].comm_end, 3.0);
  EXPECT_DOUBLE_EQ(result.makespan, 3.0);
}

TEST(Engine, PerChunkAlphaOverridesTheEngineDefault) {
  // Engine alpha 1, chunk alpha 2: the chunk pays the quadratic cost; a
  // sibling chunk with alpha 0 uses the engine default.
  const Platform plat = Platform::homogeneous(2, 1.0);
  const Engine engine(plat);
  const SimResult result =
      engine.run({{0, 3.0, 0.0, 2.0}, {1, 3.0}},
                 CommModelKind::kParallelLinks);
  EXPECT_DOUBLE_EQ(result.spans[0].compute_end, 3.0 + 9.0);
  EXPECT_DOUBLE_EQ(result.spans[1].compute_end, 3.0 + 3.0);
}

TEST(Engine, RejectsBadReleaseAndAlpha) {
  const Platform plat = Platform::homogeneous(1);
  const Engine engine(plat);
  EXPECT_THROW(
      (void)engine.run({{0, 1.0, -1.0}}, CommModelKind::kParallelLinks),
      util::PreconditionError);
  EXPECT_THROW((void)engine.run({{0, 1.0, kInf}},
                                CommModelKind::kParallelLinks),
               util::PreconditionError);
  EXPECT_THROW(
      (void)engine.run({{0, 1.0, 0.0, 0.5}}, CommModelKind::kParallelLinks),
      util::PreconditionError);
}

}  // namespace
}  // namespace nldl::sim
