// Fork-join pool for independent simulation work: the replications of an
// experiment and the per-shard phases of a fabric interval.
//
// A pool of n lanes spawns n-1 workers; the thread that calls parallel_for
// is lane 0 and claims indices from the same atomic counter as the workers,
// so uneven per-index costs balance out without a work-stealing scheduler
// and the caller never sits idle in a join.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eclb::common {

class ThreadPool {
 public:
  /// Runs resolve(threads) lanes, the calling thread included; a 1-lane
  /// pool spawns no thread and runs inline.
  explicit ThreadPool(std::size_t threads = 0);

  /// `threads`, with 0 meaning std::thread::hardware_concurrency() (at
  /// least 1).
  [[nodiscard]] static std::size_t resolve(std::size_t threads);

  /// Joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of lanes, the calling thread included.
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Runs fn(i) for i in [0, n) across the lanes and returns once every lane
  /// has finished.  Each lane claims the next unclaimed index from a shared
  /// counter until none is left, so a slow index or a preempted worker holds
  /// back only the index in hand.  Which lane runs which index depends on
  /// timing: fn must be safe to invoke concurrently, and callers that need
  /// reproducible output keep per-index work independent.  Every index runs
  /// even when some throw; once every lane has finished, the exception of
  /// the lowest failing index is rethrown, so which one surfaces does not
  /// depend on timing.  Starting a phase allocates nothing.  Phases run one
  /// at a time: a call from another thread waits its turn, and a re-entrant
  /// call from fn on any lane, the caller's included, asserts (it would
  /// deadlock).  A nested call on a distinct pool is fine.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Phase;

  void worker_loop();
  /// Claims `phase`'s indices on this lane, then checks the lane out.
  /// `lock` is released on entry and holds mu_ on return.
  void work(Phase& phase, std::unique_lock<std::mutex>& lock);

  std::mutex mu_;
  std::condition_variable wake_;  ///< Workers: a phase started, or stop_.
  std::condition_variable done_;  ///< Callers: a phase's lanes checked out.
  Phase* phase_{nullptr};         ///< The running phase, on its caller's stack.
  std::uint64_t started_{0};      ///< Phases published so far.
  bool stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace eclb::common
