// Fixed-size worker pool for independent simulation work: the replications
// of an experiment and the per-shard phases of a fabric interval.
//
// Tasks go through one shared queue.  parallel_for layers index claiming on
// top: a handful of tasks draw indices from one atomic counter, so uneven
// per-index costs balance out without a work-stealing scheduler.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace eclb::common {

/// A simple thread pool; tasks are std::function<void()> and results flow
/// back through futures.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Schedules a callable; the returned future carries its result (or
  /// exception).
  template <class F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all
  /// complete.  min(n, size()) tasks each claim the next unclaimed index
  /// from a shared counter until none is left, so a slow index or a
  /// preempted worker holds back only the index in hand while the other
  /// tasks keep claiming.  Which task runs which index depends on timing:
  /// fn must be safe to invoke concurrently, and callers that need
  /// reproducible output keep per-index work independent.  Every index runs
  /// even when some throw; after the barrier the exception of the lowest
  /// failing index is rethrown, so which one surfaces does not depend on
  /// timing.  Calling this from one of the pool's own worker threads
  /// asserts (it would deadlock).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace eclb::common
