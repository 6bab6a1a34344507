#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/assert.h"

namespace eclb::common {

namespace {

/// The pool the current thread is a worker of, if any.  Used to detect
/// re-entrant parallel_for calls, which would deadlock: the calling worker
/// blocks on futures only the (possibly fully-blocked) pool can complete.
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to do
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  ECLB_ASSERT(tls_worker_pool != this,
              "parallel_for: re-entrant call from a worker thread deadlocks");
  if (n == 0) return;
  // A task claims indices in increasing order, so the first failure it
  // catches is its lowest; the lowest over all tasks is the global lowest.
  struct Failure {
    std::size_t index;
    std::exception_ptr error;
  };
  std::atomic<std::size_t> next{0};
  const auto claim = [&fn, &next, n] {
    Failure first{n, nullptr};
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(i);
      } catch (...) {
        if (first.error == nullptr) first = {i, std::current_exception()};
      }
    }
    return first;
  };
  const std::size_t tasks = std::min(n, workers_.size());
  std::vector<std::future<Failure>> futures;
  futures.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) futures.push_back(submit(claim));
  // Every task must finish before this frame (and `fn`, `next`) unwinds;
  // the claim loop catches everything, so get() itself never throws.
  Failure lowest{n, nullptr};
  for (auto& f : futures) {
    Failure r = f.get();
    if (r.index < lowest.index) lowest = std::move(r);
  }
  if (lowest.error != nullptr) std::rethrow_exception(lowest.error);
}

}  // namespace eclb::common
