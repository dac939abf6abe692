// Integration tests for the MapReduce outer-product and matmul jobs.
#include "mapreduce/matmul_job.hpp"
#include "mapreduce/outer_product_job.hpp"

#include <gtest/gtest.h>

#include "linalg/outer_product.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nldl::mapreduce {
namespace {

TEST(OuterProductJob, MatchesSerialReference) {
  util::Rng rng(1);
  const std::size_t n = 24;
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  JobConfig config;
  Counters counters;
  const auto result = outer_product_mapreduce(a, b, 6, config, &counters);
  EXPECT_TRUE(result.approx_equal(linalg::outer_product_serial(a, b), 1e-12));
  EXPECT_EQ(counters.map_tasks, 16U);                  // (24/6)²
  EXPECT_EQ(counters.map_output_records, n * n);       // one per cell
  EXPECT_EQ(counters.reduce_groups, n * n);            // unique keys
}

TEST(OuterProductJob, ParallelEngineAgrees) {
  util::Rng rng(2);
  const std::size_t n = 20;
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (auto& v : a) v = rng.uniform(0.0, 2.0);
  for (auto& v : b) v = rng.uniform(0.0, 2.0);
  util::ThreadPool pool(2);
  JobConfig config;
  config.pool = &pool;
  config.num_reducers = 4;
  const auto result = outer_product_mapreduce(a, b, 5, config);
  EXPECT_TRUE(result.approx_equal(linalg::outer_product_serial(a, b), 1e-12));
}

TEST(OuterProductJob, RejectsIndivisibleBlocks) {
  JobConfig config;
  EXPECT_THROW((void)outer_product_mapreduce(std::vector<double>(10, 1.0),
                                             std::vector<double>(10, 1.0), 3,
                                             config),
               util::PreconditionError);
}

TEST(OuterProductTasks, ShapeAndInputs) {
  const auto tasks = outer_product_tasks(100, 10);
  ASSERT_EQ(tasks.size(), 100U);
  for (const auto& task : tasks) {
    EXPECT_DOUBLE_EQ(task.compute_cost, 100.0);
    ASSERT_EQ(task.inputs.size(), 2U);
    EXPECT_LT(task.inputs[0], kBSegmentBase);
    EXPECT_GE(task.inputs[1], kBSegmentBase);
  }
}

TEST(MatmulJob, MatchesNaiveReference) {
  util::Rng rng(3);
  const std::size_t n = 16;
  const auto a = linalg::Matrix::random(n, n, rng);
  const auto b = linalg::Matrix::random(n, n, rng);
  JobConfig config;
  Counters counters;
  const auto result = matmul_mapreduce(a, b, 4, config, &counters);
  EXPECT_TRUE(result.approx_equal(linalg::multiply_naive(a, b), 1e-10));
  EXPECT_EQ(counters.map_tasks, 64U);  // (16/4)³
  // Each of the n² cells receives n/b = 4 partial values.
  EXPECT_EQ(counters.map_output_records, n * n * 4);
}

TEST(MatmulReplicationVolume, Formula) {
  EXPECT_DOUBLE_EQ(matmul_replication_volume(100.0, 10.0), 2e5);
  // Finer blocks replicate more.
  EXPECT_GT(matmul_replication_volume(100.0, 5.0),
            matmul_replication_volume(100.0, 20.0));
  EXPECT_THROW((void)matmul_replication_volume(10.0, 20.0),
               util::PreconditionError);
}

TEST(MatmulTasks, ShapeAndSharedBlocks) {
  const auto tasks = matmul_tasks(8, 4);  // g = 2 → 8 tasks
  ASSERT_EQ(tasks.size(), 8U);
  for (const auto& task : tasks) {
    EXPECT_DOUBLE_EQ(task.compute_cost, 64.0);
    ASSERT_EQ(task.inputs.size(), 2U);
  }
  // Each A block (bi, bk) is read by g tasks (all bj) — count one of them.
  std::size_t readers = 0;
  for (const auto& task : tasks) {
    if (task.inputs[0] == 0) ++readers;  // A block (0,0)
  }
  EXPECT_EQ(readers, 2U);
}

TEST(MatmulTasks, AffinitySchedulingSavesBytes) {
  const auto tasks = matmul_tasks(32, 8);  // g = 4, 64 tasks
  ClusterConfig plain;
  plain.speeds = {1.0, 1.0, 2.0, 3.0};
  const auto blind = run_cluster(tasks, plain);
  ClusterConfig aware = plain;
  aware.affinity_aware = true;
  const auto smart = run_cluster(tasks, aware);
  EXPECT_LT(smart.total_bytes, blind.total_bytes);
}

}  // namespace
}  // namespace nldl::mapreduce
