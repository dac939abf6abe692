#include "util/threadpool.hpp"

#include <algorithm>

namespace nldl::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  NLDL_REQUIRE(num_threads >= 1, "ThreadPool requires at least one thread");
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  std::size_t grain,
                  const std::function<void(std::size_t)>& fn) {
  NLDL_REQUIRE(begin <= end, "parallel_for requires begin <= end");
  if (pool == nullptr) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  if (begin == end) return;
  grain = std::max<std::size_t>(grain, 1);
  std::vector<std::future<void>> futures;
  for (std::size_t chunk = begin; chunk < end; chunk += grain) {
    const std::size_t chunk_end = std::min(chunk + grain, end);
    futures.push_back(pool->submit([chunk, chunk_end, &fn] {
      for (std::size_t i = chunk; i < chunk_end; ++i) fn(i);
    }));
  }
  // Wait for *every* chunk before rethrowing: queued tasks hold references
  // to `fn` and the chunk state in this frame, so unwinding while any of
  // them is still pending would leave them with dangling captures.
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace nldl::util
