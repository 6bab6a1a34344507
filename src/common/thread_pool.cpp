#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "common/assert.h"

namespace eclb::common {

/// The pool whose phase the current thread is working, if any: a worker's
/// own pool, or the pool a caller lane runs a phase on.
static thread_local const ThreadPool* tls_lane_pool = nullptr;

/// One phase's job slot.  It lives on the caller's stack, so no lane may
/// touch it once it has checked out.
struct ThreadPool::Phase {
  const std::function<void(std::size_t)>* fn;
  std::size_t n;
  std::atomic<std::size_t> next{0};  ///< The next unclaimed index.
  std::size_t running;               ///< Lanes not yet checked out (mu_).
  std::size_t failed;                ///< Lowest failing index, or n (mu_).
  std::exception_ptr error;          ///< The exception of `failed` (mu_).
};

std::size_t ThreadPool::resolve(std::size_t threads) {
  return threads != 0
             ? threads
             : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  for (std::size_t lane = 1; lane < resolve(threads); ++lane) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  tls_lane_pool = this;
  std::uint64_t seen = 0;
  std::unique_lock lock(mu_);
  for (;;) {
    wake_.wait(lock, [&] { return stop_ || started_ != seen; });
    if (stop_) return;
    seen = started_;
    Phase& phase = *phase_;
    lock.unlock();
    work(phase, lock);
  }
}

void ThreadPool::work(Phase& phase, std::unique_lock<std::mutex>& lock) {
  for (std::size_t i = phase.next.fetch_add(1, std::memory_order_relaxed);
       i < phase.n; i = phase.next.fetch_add(1, std::memory_order_relaxed)) {
    try {
      (*phase.fn)(i);
    } catch (...) {
      const std::lock_guard failure(mu_);
      if (i < phase.failed) {
        phase.failed = i;
        phase.error = std::current_exception();
      }
    }
  }
  lock.lock();
  if (--phase.running == 0) done_.notify_all();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  ECLB_ASSERT(tls_lane_pool != this,
              "parallel_for: re-entrant call from one of the pool's lanes");
  if (n == 0) return;
  Phase phase{&fn, n, {0}, size(), n, nullptr};
  const ThreadPool* const outer = std::exchange(tls_lane_pool, this);
  std::unique_lock lock(mu_);
  done_.wait(lock, [this] { return phase_ == nullptr; });
  phase_ = &phase;
  ++started_;
  lock.unlock();
  wake_.notify_all();
  work(phase, lock);
  // Every lane must check out before this frame (and `fn`, `phase`)
  // unwinds; the claim loop catches everything, so nothing skips the wait.
  done_.wait(lock, [&phase] { return phase.running == 0; });
  phase_ = nullptr;
  done_.notify_all();  // wakes a call from another thread waiting its turn
  lock.unlock();
  tls_lane_pool = outer;
  if (phase.error != nullptr) std::rethrow_exception(phase.error);
}

}  // namespace eclb::common
