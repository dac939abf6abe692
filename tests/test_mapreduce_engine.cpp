// Unit tests for the mini MapReduce engine.
#include "mapreduce/engine.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace nldl::mapreduce {
namespace {

double sum_reducer(std::uint64_t, std::span<const double> values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

TEST(Engine, WordCountStyleJob) {
  // Splits emit (key = value mod 3, 1.0); reduce counts occurrences.
  JobConfig config;
  config.num_splits = 9;
  config.num_reducers = 2;
  const auto result = run_job(
      config,
      [](std::size_t split, std::vector<KV>& out) {
        out.push_back(KV{split % 3, 1.0});
      },
      sum_reducer);
  ASSERT_EQ(result.output.size(), 3U);
  for (const KV& kv : result.output) {
    EXPECT_DOUBLE_EQ(kv.value, 3.0);
  }
  EXPECT_EQ(result.counters.map_tasks, 9U);
  EXPECT_EQ(result.counters.map_output_records, 9U);
  EXPECT_EQ(result.counters.reduce_groups, 3U);
}

TEST(Engine, OutputSortedByKey) {
  JobConfig config;
  config.num_splits = 10;
  config.num_reducers = 4;
  const auto result = run_job(
      config,
      [](std::size_t split, std::vector<KV>& out) {
        out.push_back(KV{9 - split, static_cast<double>(split)});
      },
      sum_reducer);
  for (std::size_t i = 1; i < result.output.size(); ++i) {
    EXPECT_LT(result.output[i - 1].key, result.output[i].key);
  }
}

TEST(Engine, ParallelMatchesSerial) {
  auto map_fn = [](std::size_t split, std::vector<KV>& out) {
    for (std::size_t i = 0; i < 50; ++i) {
      out.push_back(KV{(split * 31 + i) % 17,
                       static_cast<double>(split) + 0.5});
    }
  };
  JobConfig serial;
  serial.num_splits = 40;
  serial.num_reducers = 5;
  const auto expected = run_job(serial, map_fn, sum_reducer);

  util::ThreadPool pool(2);
  JobConfig parallel = serial;
  parallel.pool = &pool;
  const auto actual = run_job(parallel, map_fn, sum_reducer);

  ASSERT_EQ(actual.output.size(), expected.output.size());
  for (std::size_t i = 0; i < actual.output.size(); ++i) {
    EXPECT_EQ(actual.output[i].key, expected.output[i].key);
    EXPECT_EQ(actual.output[i].value, expected.output[i].value);  // bitwise
  }
}

TEST(Engine, PooledJobIsBitwiseSerialWhenSumsDependOnOrder) {
  // Every key sums 1e16, 1 and -1e16 + 3 in an order set by the split
  // index, and a float sum of these depends on the order (1e16 + 1
  // rounds back to 1e16).
  constexpr double kValues[] = {1e16, 1.0, -1e16 + 3.0};
  const auto map_fn = [&kValues](std::size_t split, std::vector<KV>& out) {
    for (std::uint64_t key = 0; key < 6; ++key) {
      out.push_back(KV{key, kValues[(split + key) % 3]});
    }
  };
  JobConfig serial;
  serial.num_splits = 48;
  serial.num_reducers = 3;
  const auto expected = run_job(serial, map_fn, sum_reducer);

  // In the pooled runs split 0 finishes only after split 1, so a shuffle
  // in task-completion order would put split 1's records first; the
  // other splits finish in whatever order the threads give.
  std::atomic<bool> split1_done{false};
  const auto pooled_map_fn = [&](std::size_t split, std::vector<KV>& out) {
    if (split == 0) split1_done.wait(false);
    map_fn(split, out);
    if (split == 1) {
      split1_done = true;
      split1_done.notify_one();
    }
  };
  util::ThreadPool pool(4);
  JobConfig pooled = serial;
  pooled.pool = &pool;
  for (int run = 0; run < 50; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    split1_done = false;
    const auto actual = run_job(pooled, pooled_map_fn, sum_reducer);
    ASSERT_EQ(actual.output.size(), expected.output.size());
    for (std::size_t i = 0; i < actual.output.size(); ++i) {
      EXPECT_EQ(actual.output[i].key, expected.output[i].key);
      EXPECT_EQ(actual.output[i].value, expected.output[i].value);
    }
  }
}

// Regression: the pooled map and reduce phases used to rethrow at the
// first failed task while the tasks queued behind it still held
// references into run_job's frame, which then ran against a dead frame
// (ASan: stack-use-after-scope or heap-use-after-free). One worker runs
// task 0 first, so every other task is still queued when it throws.
TEST(Engine, ThrowingTaskWaitsForEveryTask) {
  constexpr std::size_t kTasks = 64;
  util::ThreadPool pool(1);
  for (const bool in_reduce : {false, true}) {
    SCOPED_TRACE(in_reduce ? "reduce_fn throws" : "map_fn throws");
    std::atomic<std::size_t> ran{0};
    const auto task = [&ran](std::size_t index) {
      if (index == 0) throw std::runtime_error("task 0");
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      ++ran;
    };
    JobConfig config;
    config.num_splits = kTasks;
    config.num_reducers = in_reduce ? kTasks : 1;
    config.pool = &pool;
    const MapFn map_fn = [&](std::size_t split, std::vector<KV>& out) {
      if (!in_reduce) task(split);
      out.push_back(KV{split, 1.0});  // key k lands on reducer k
    };
    const ReduceFn reduce_fn = [&](std::uint64_t key,
                                   std::span<const double> values) {
      if (in_reduce) task(static_cast<std::size_t>(key));
      return sum_reducer(key, values);
    };
    EXPECT_THROW((void)run_job(config, map_fn, reduce_fn),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), kTasks - 1);
  }
}

TEST(Engine, EmptyJob) {
  JobConfig config;
  config.num_splits = 0;
  const auto result = run_job(
      config, [](std::size_t, std::vector<KV>&) {}, sum_reducer);
  EXPECT_TRUE(result.output.empty());
  EXPECT_EQ(result.counters.map_output_records, 0U);
}

TEST(Engine, RejectsBadConfig) {
  JobConfig config;
  config.num_reducers = 0;
  EXPECT_THROW((void)run_job(config,
                             [](std::size_t, std::vector<KV>&) {},
                             sum_reducer),
               util::PreconditionError);
  JobConfig ok;
  EXPECT_THROW((void)run_job(ok, MapFn{}, sum_reducer),
               util::PreconditionError);
  EXPECT_THROW((void)run_job(ok,
                             [](std::size_t, std::vector<KV>&) {},
                             ReduceFn{}),
               util::PreconditionError);
}

TEST(Engine, ReducerSeesAllValuesOfItsKey) {
  JobConfig config;
  config.num_splits = 6;
  config.num_reducers = 3;
  std::size_t max_group = 0;
  const auto result = run_job(
      config,
      [](std::size_t split, std::vector<KV>& out) {
        out.push_back(KV{0, static_cast<double>(split)});
      },
      [&](std::uint64_t, std::span<const double> values) {
        max_group = std::max(max_group, values.size());
        double sum = 0.0;
        for (const double v : values) sum += v;
        return sum;
      });
  EXPECT_EQ(max_group, 6U);
  ASSERT_EQ(result.output.size(), 1U);
  EXPECT_DOUBLE_EQ(result.output[0].value, 15.0);
}

}  // namespace
}  // namespace nldl::mapreduce
