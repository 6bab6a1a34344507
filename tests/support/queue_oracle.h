// Test-only reference for the request serve kernel: the per-VM queue the
// request driver kept before its queues moved into one carry buffer, kept
// verbatim (push, serve with its capacity give-back, take_all, prepend,
// drop_all).  workload::engine::serve, push and prepend, driven the way the
// driver drives them, must leave the same completions, violations,
// histogram, backlog, server-free time and surviving requests, bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/assert.h"
#include "common/units.h"
#include "workload/engine/arrivals.h"
#include "workload/engine/latency.h"
#include "workload/engine/queue.h"

namespace eclb::test_support {

/// FIFO queue of requests pending on one VM.
class OracleQueue {
 public:
  using Pending = workload::engine::Pending;
  using Request = workload::engine::Request;
  using QueueServeStats = workload::engine::QueueServeStats;
  using LatencyHistogram = workload::engine::LatencyHistogram;

  /// Enqueues a request (callers push in arrival order).
  void push(const Request& r) {
    ECLB_ASSERT(r.service > 0.0, "request queue: service work must be > 0");
    pending_.push_back(Pending{r.arrival, r.service});
    backlog_work_ += r.service;
  }

  /// Serves the window [t0, t1) at `rate` capacity-seconds per second.
  QueueServeStats serve(common::Seconds t0, common::Seconds t1, double rate,
                        double sla_seconds, LatencyHistogram* hist) {
    QueueServeStats stats;
    if (!(rate > 0.0) || t1 <= t0) return stats;

    const std::size_t window_peak = pending_.size();
    double cursor = std::max(ready_at_.value, t0.value);
    std::size_t head = 0;  // First request not yet completed this window.
    while (head < pending_.size()) {
      Pending& req = pending_[head];
      const double start = std::max(req.arrival.value, cursor);
      if (start >= t1.value) break;
      const double finish = start + req.remaining / rate;
      if (finish > t1.value) {
        // The window closes mid-request: bank the work done, keep the head.
        const double done = rate * (t1.value - start);
        req.remaining -= done;
        backlog_work_ = std::max(0.0, backlog_work_ - done);
        cursor = t1.value;
        break;
      }
      const double sojourn = finish - req.arrival.value;
      if (hist != nullptr) hist->record(sojourn);
      ++stats.completed;
      if (sojourn > sla_seconds) ++stats.sla_violations;
      backlog_work_ = std::max(0.0, backlog_work_ - req.remaining);
      ++head;
      cursor = finish;
    }
    const auto served = pending_.begin() + static_cast<std::ptrdiff_t>(head);
    if (pending_.capacity() > 2 * window_peak + kSlack) {
      // A past burst left far more room than this window needed: keep room
      // for this window's peak only, so capacity tracks the load.
      std::vector<Pending> kept;
      kept.reserve(window_peak);
      kept.assign(served, pending_.end());
      pending_.swap(kept);
    } else {
      pending_.erase(pending_.begin(), served);
    }
    ready_at_ = common::Seconds{std::min(cursor, t1.value)};
    return stats;
  }

  [[nodiscard]] std::size_t depth() const { return pending_.size(); }
  [[nodiscard]] double backlog_work() const { return backlog_work_; }
  [[nodiscard]] common::Seconds ready_at() const { return ready_at_; }
  [[nodiscard]] const std::vector<Pending>& pending() const {
    return pending_;
  }

  /// Drops everything (the VM vanished); returns the number dropped.
  std::size_t drop_all() {
    const std::size_t n = pending_.size();
    pending_.clear();
    backlog_work_ = 0.0;
    return n;
  }

  /// Removes and returns every pending request; the server-free time stays.
  [[nodiscard]] std::vector<Pending> take_all() {
    std::vector<Pending> out;
    out.swap(pending_);
    backlog_work_ = 0.0;
    return out;
  }

  /// Splices `batch` in front of the current contents.
  void prepend(std::vector<Pending> batch) {
    for (const Pending& p : batch) backlog_work_ += p.remaining;
    pending_.insert(pending_.begin(), batch.begin(), batch.end());
  }

 private:
  /// Spare capacity, in requests, a queue may keep beyond twice its window
  /// peak before serve gives it back.
  static constexpr std::size_t kSlack = 16;

  std::vector<Pending> pending_;  ///< Oldest first.
  double backlog_work_{0.0};
  common::Seconds ready_at_{common::Seconds{0.0}};  ///< Server-free time.
};

}  // namespace eclb::test_support
