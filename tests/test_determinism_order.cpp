// Insertion-order-independence pins for the audited container sites of
// the nldl-lint unordered-container sweep: the mapreduce block caches
// (cluster_sim, speculation). Both were std::unordered_* and are now
// ordered; these tests permute the order in which elements ENTER each
// container and assert bitwise-identical outcomes, so a future
// reintroduction of order-sensitive iteration fails here before it
// reaches a bench.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "mapreduce/cluster_sim.hpp"
#include "mapreduce/speculation.hpp"

namespace {

using nldl::mapreduce::BlockId;
using nldl::mapreduce::ClusterConfig;
using nldl::mapreduce::ClusterOutcome;
using nldl::mapreduce::SimTask;

// The per-worker block cache is populated in task-input order; permuting
// each task's input list permutes exactly the cache insertion order while
// naming the same block set, so every accounted quantity must be
// bit-identical.
std::vector<SimTask> affinity_tasks(bool reversed) {
  std::vector<SimTask> tasks;
  for (std::size_t t = 0; t < 24; ++t) {
    SimTask task;
    task.compute_cost = 3.0 + static_cast<double>(t % 5);
    // Overlapping block sets so affinity scheduling has real choices.
    task.inputs = {BlockId(t), BlockId(t / 2 + 100), BlockId(t % 7 + 200),
                   BlockId(301), BlockId(t % 3 + 400)};
    if (reversed) std::reverse(task.inputs.begin(), task.inputs.end());
    tasks.push_back(task);
  }
  return tasks;
}

void expect_identical(const ClusterOutcome& a, const ClusterOutcome& b) {
  EXPECT_EQ(a.owner, b.owner);
  EXPECT_EQ(a.worker_time, b.worker_time);
  EXPECT_EQ(a.bytes_per_worker, b.bytes_per_worker);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.imbalance, b.imbalance);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
}

TEST(DeterminismOrder, ClusterSimCacheIgnoresInsertionOrder) {
  ClusterConfig config;
  config.speeds = {1.0, 1.5, 0.75};
  config.bytes_per_block = 2.0;
  for (const bool affinity : {false, true}) {
    config.affinity_aware = affinity;
    const ClusterOutcome forward = run_cluster(affinity_tasks(false), config);
    const ClusterOutcome reversed = run_cluster(affinity_tasks(true), config);
    expect_identical(forward, reversed);
  }
}

TEST(DeterminismOrder, SpeculationCacheIgnoresInsertionOrder) {
  nldl::mapreduce::StragglerConfig config;
  config.speeds = {1.0, 1.0, 2.0};
  config.slowdown = {1.0, 4.0, 1.0};
  config.bytes_per_block = 1.5;
  for (const bool speculate : {false, true}) {
    config.speculative_execution = speculate;
    const auto forward =
        run_with_stragglers(affinity_tasks(false), config);
    const auto reversed =
        run_with_stragglers(affinity_tasks(true), config);
    EXPECT_EQ(forward.makespan, reversed.makespan);
    EXPECT_EQ(forward.total_bytes, reversed.total_bytes);
    EXPECT_EQ(forward.backup_launches, reversed.backup_launches);
    EXPECT_EQ(forward.backups_won, reversed.backups_won);
    EXPECT_EQ(forward.worker_busy, reversed.worker_busy);
  }
}

}  // namespace
