// Unit tests for the master→worker schedule simulator (sim::Engine driven
// through its built-in communication models).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "util/assert.hpp"

namespace nldl::sim {
namespace {

using platform::Platform;

SimResult simulate(const Platform& plat,
                   const std::vector<ChunkAssignment>& schedule,
                   CommModelKind kind = CommModelKind::kParallelLinks,
                   double alpha = 1.0) {
  const Engine engine(plat, EngineOptions{alpha});
  return engine.run(schedule, kind);
}

TEST(Simulate, SingleChunkTimeline) {
  const Platform plat = Platform::from_speeds({2.0}, 3.0);  // c=3, w=0.5
  const SimResult result = simulate(plat, {{0, 4.0}});
  ASSERT_EQ(result.spans.size(), 1U);
  const ChunkSpan& span = result.spans[0];
  EXPECT_DOUBLE_EQ(span.comm_start, 0.0);
  EXPECT_DOUBLE_EQ(span.comm_end, 12.0);       // 3 · 4
  EXPECT_DOUBLE_EQ(span.compute_start, 12.0);  // starts after full receipt
  EXPECT_DOUBLE_EQ(span.compute_end, 14.0);    // + 0.5 · 4
  EXPECT_DOUBLE_EQ(result.makespan, 14.0);
}

TEST(Simulate, ParallelLinksOverlapAcrossWorkers) {
  const Platform plat = Platform::homogeneous(2, 1.0);
  const SimResult result = simulate(plat, {{0, 5.0}, {1, 5.0}});
  // Both communications start at t = 0 under parallel links.
  EXPECT_DOUBLE_EQ(result.spans[0].comm_start, 0.0);
  EXPECT_DOUBLE_EQ(result.spans[1].comm_start, 0.0);
  EXPECT_DOUBLE_EQ(result.makespan, 10.0);
}

TEST(Simulate, OnePortSerializesComms) {
  const Platform plat = Platform::homogeneous(2, 1.0);
  const SimResult result =
      simulate(plat, {{0, 5.0}, {1, 5.0}}, CommModelKind::kOnePort);
  EXPECT_DOUBLE_EQ(result.spans[0].comm_start, 0.0);
  EXPECT_DOUBLE_EQ(result.spans[1].comm_start, 5.0);  // waits for port
  EXPECT_DOUBLE_EQ(result.makespan, 15.0);
}

TEST(Simulate, NonlinearComputeCost) {
  const Platform plat = Platform({{1.0, 2.0}});
  const SimResult result =
      simulate(plat, {{0, 3.0}}, CommModelKind::kParallelLinks, 2.0);
  // comm 3, compute 2 · 3² = 18.
  EXPECT_DOUBLE_EQ(result.makespan, 21.0);
}

TEST(Simulate, MultiRoundPipelinesCommAndCompute) {
  // One worker, two chunks: the second chunk's comm overlaps the first
  // chunk's compute.
  const Platform plat = Platform({{1.0, 2.0}});
  const SimResult result = simulate(plat, {{0, 2.0}, {0, 2.0}});
  const ChunkSpan& second = result.spans[1];
  EXPECT_DOUBLE_EQ(second.comm_start, 2.0);  // link free after first comm
  EXPECT_DOUBLE_EQ(second.comm_end, 4.0);
  // First compute runs [2, 6]; second starts at max(4, 6) = 6.
  EXPECT_DOUBLE_EQ(second.compute_start, 6.0);
  EXPECT_DOUBLE_EQ(result.makespan, 10.0);
}

TEST(Simulate, ZeroSizeChunksAreFree) {
  const Platform plat = Platform::homogeneous(2);
  const SimResult result = simulate(plat, {{0, 0.0}, {1, 3.0}});
  EXPECT_DOUBLE_EQ(result.worker_compute_time[0], 0.0);
  EXPECT_DOUBLE_EQ(result.makespan, 6.0);
}

TEST(Simulate, RejectsBadInput) {
  const Platform plat = Platform::homogeneous(1);
  EXPECT_THROW((void)simulate(plat, {{1, 1.0}}), util::PreconditionError);
  EXPECT_THROW((void)simulate(plat, {{0, -1.0}}), util::PreconditionError);
  EXPECT_THROW(
      (void)simulate(plat, {{0, 1.0}}, CommModelKind::kParallelLinks, 0.5),
      util::PreconditionError);
}

TEST(Simulate, PerWorkerAccounting) {
  const Platform plat = Platform::from_speeds({1.0, 2.0});
  const SimResult result = simulate(plat, {{0, 2.0}, {1, 4.0}, {0, 1.0}});
  EXPECT_DOUBLE_EQ(result.worker_comm_time[0], 3.0);
  EXPECT_DOUBLE_EQ(result.worker_compute_time[0], 3.0);  // w=1
  EXPECT_DOUBLE_EQ(result.worker_compute_time[1], 2.0);  // w=0.5 · 4
}

TEST(LoadImbalance, PerfectBalanceIsZero) {
  SimResult result;
  result.worker_compute_time = {5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(result.load_imbalance(), 0.0);
}

TEST(LoadImbalance, MatchesDefinition) {
  SimResult result;
  result.worker_compute_time = {4.0, 5.0};
  EXPECT_DOUBLE_EQ(result.load_imbalance(), 0.25);
}

TEST(LoadImbalance, IdleWorkerIsExcludedAndCounted) {
  SimResult result;
  result.worker_compute_time = {0.0, 5.0};
  // The idle worker doesn't poison e with +inf; it is reported separately.
  EXPECT_DOUBLE_EQ(result.load_imbalance(), 0.0);
  EXPECT_EQ(result.idle_workers(), 1U);
  result.worker_compute_time = {0.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(result.load_imbalance(), 0.25);
}

TEST(AsciiGantt, RendersOneRowPerWorker) {
  const Platform plat = Platform::from_speeds({1.0, 2.0});
  const SimResult result = simulate(plat, {{0, 4.0}, {1, 4.0}});
  const std::string art = ascii_gantt(plat, result, 40);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 3);  // 2 rows + footer
  EXPECT_NE(art.find('#'), std::string::npos);  // some compute drawn
  EXPECT_NE(art.find('-'), std::string::npos);  // some comm drawn
}

}  // namespace
}  // namespace nldl::sim
