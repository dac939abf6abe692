// Minimal fixed-size thread pool.
//
// Used where the paper's algorithms are actually *executed* on one node
// (sample sort local sorts, matmul kernels, the MapReduce engine) as opposed
// to where platform time is *simulated* (src/sim). Library code hands it
// indexed work only through parallel_for below, whose null pool means
// inline. Follows the C++ Core Guidelines concurrency rules: no detached
// threads, joins in the destructor, futures for results.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace nldl::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; the returned future yields its result (or exception).
  template <typename F>
  [[nodiscard]] auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using Result = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    {
      std::lock_guard lock(mutex_);
      NLDL_REQUIRE(!stopping_, "submit() on a stopping ThreadPool");
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Run fn(i) for every i in [begin, end), returning when all have run: the
/// one way library code runs indexed work, on a pool or inline. A null
/// `pool` runs fn(begin), fn(begin + 1), ... on the calling thread, so a
/// throw at index k leaves the indices after k unrun. Otherwise the range
/// is split into contiguous chunks of `grain` indices (at least 1), one
/// pool task each, and every chunk is waited on even when one throws —
/// only then is the first exception (in chunk order) rethrown, so no
/// queued task can outlive the caller's `fn` or the state it captures.
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  std::size_t grain,
                  const std::function<void(std::size_t)>& fn);

}  // namespace nldl::util
