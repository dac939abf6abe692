// Unit tests for the thread pool.
#include "util/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/assert.hpp"

namespace nldl::util {
namespace {

TEST(ThreadPool, RequiresAtLeastOneThread) {
  EXPECT_THROW(ThreadPool(0), PreconditionError);
}

TEST(ThreadPool, ReportsSize) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3U);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW((void)future.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      (void)pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++counter;
      });
    }
  }  // destructor must wait for all 100
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(&pool, 0, hits.size(), 7,
               [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) {
    ASSERT_EQ(hit.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(&pool, 5, 5, 1, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, RejectsInvertedRange) {
  ThreadPool pool(1);
  EXPECT_THROW(parallel_for(&pool, 5, 4, 1, [](std::size_t) {}),
               PreconditionError);
  EXPECT_THROW(parallel_for(nullptr, 5, 4, 1, [](std::size_t) {}),
               PreconditionError);
}

TEST(ParallelFor, NullPoolRunsInIndexOrderOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(nullptr, 3, 11, 4, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller) << "index " << i;
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 4, 5, 6, 7, 8, 9, 10}));

  // The first throw ends the loop: the indices after it never run.
  order.clear();
  EXPECT_THROW(parallel_for(nullptr, 0, 10, 1,
                            [&](std::size_t i) {
                              order.push_back(i);
                              if (i == 4) throw std::runtime_error("k");
                            }),
               std::runtime_error);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(&pool, 0, 10, 1,
                            [](std::size_t i) {
                              if (i == 7) throw std::runtime_error("x");
                            }),
               std::runtime_error);
}

// Regression: parallel_for used to rethrow from the first failed
// future.get() while later queued chunks still held references to `fn`
// and the caller's frame — a use-after-free window once the frame
// unwound (caught by ASan on this test). The fix waits for *all* chunks,
// then rethrows, so every non-throwing chunk must have fully executed
// against live state by the time the exception escapes.
TEST(ParallelFor, WaitsForAllChunksWhenOneThrows) {
  ThreadPool pool(2);
  constexpr std::size_t kCount = 64;
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      parallel_for(&pool, 0, kCount, 1,
                   [&](std::size_t i) {
                     if (i == 5) throw std::runtime_error("mid-range");
                     // Stagger the survivors so plenty of chunks are
                     // still queued when chunk 5 fails.
                     std::this_thread::sleep_for(
                         std::chrono::microseconds(50));
                     ++hits[i];
                     ++completed;
                   }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), static_cast<int>(kCount) - 1);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), i == 5 ? 0 : 1) << "chunk " << i;
  }
}

TEST(ParallelFor, RethrowsFirstExceptionInChunkOrder) {
  // One worker thread makes chunk execution order deterministic, so the
  // "first captured exception" is the one from the lowest chunk.
  ThreadPool pool(1);
  try {
    parallel_for(&pool, 0, 12, 1, [](std::size_t i) {
      if (i == 2) throw std::runtime_error("early");
      if (i == 9) throw std::logic_error("late");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "early");
  } catch (const std::logic_error&) {
    FAIL() << "later chunk's exception won over the earlier one";
  }
}

TEST(ParallelFor, SumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<double> values(10000);
  std::iota(values.begin(), values.end(), 0.0);
  std::atomic<long long> sum{0};
  parallel_for(&pool, 0, values.size(), 64, [&](std::size_t i) {
    sum += static_cast<long long>(values[i]);  // nldl-lint: allow(parallel-accum): integer atomic sum is order-independent; exercises parallel_for itself
  });
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
}

}  // namespace
}  // namespace nldl::util
