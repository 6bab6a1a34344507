#include "workload/engine/queue.h"

#include <algorithm>

#include "common/assert.h"

namespace eclb::workload::engine {

namespace {

/// Spare capacity, in requests, a queue may keep beyond twice its window
/// peak before serve gives it back.
constexpr std::size_t kSlack = 16;

}  // namespace

void RequestQueue::push(const Request& r) {
  ECLB_ASSERT(r.service > 0.0, "request queue: service work must be > 0");
  pending_.push_back(Pending{r.arrival, r.service});
  backlog_work_ += r.service;
}

void RequestQueue::reserve_more(std::size_t n) {
  const std::size_t need = pending_.size() + n;
  if (need > pending_.capacity()) {
    pending_.reserve(std::max(need, pending_.capacity() * 3 / 2));
  }
}

QueueServeStats RequestQueue::serve(common::Seconds t0, common::Seconds t1,
                                    double rate, double sla_seconds,
                                    LatencyHistogram* hist) {
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

std::size_t RequestQueue::drop_all() {
  const std::size_t n = pending_.size();
  pending_.clear();
  backlog_work_ = 0.0;
  return n;
}

std::vector<RequestQueue::Pending> RequestQueue::take_all() {
  std::vector<Pending> out;
  out.swap(pending_);
  backlog_work_ = 0.0;
  return out;
}

void RequestQueue::prepend(std::vector<Pending> batch) {
  for (const Pending& p : batch) backlog_work_ += p.remaining;
  pending_.insert(pending_.begin(), batch.begin(), batch.end());
}

}  // namespace eclb::workload::engine
