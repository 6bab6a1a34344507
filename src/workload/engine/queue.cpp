#include "workload/engine/queue.h"

#include <algorithm>
#include <cstddef>

namespace eclb::workload::engine {

QueueServeStats serve(std::span<Pending> pending, FifoState& state,
                      common::Seconds t0, common::Seconds t1, double rate,
                      double sla_seconds, LatencyHistogram* hist) {
  QueueServeStats stats;
  if (!(rate > 0.0) || t1 <= t0) return stats;

  double backlog = state.backlog;
  double cursor = std::max(state.ready_at.value, t0.value);
  for (Pending& req : pending) {
    const double start = std::max(req.arrival.value, cursor);
    if (start >= t1.value) break;
    const double finish = start + req.remaining / rate;
    if (finish > t1.value) {
      // The window closes mid-request: bank the work done, keep the head.
      const double done = rate * (t1.value - start);
      req.remaining -= done;
      backlog = std::max(0.0, backlog - done);
      cursor = t1.value;
      break;
    }
    const double sojourn = finish - req.arrival.value;
    if (hist != nullptr) hist->record(sojourn);
    ++stats.completed;
    if (sojourn > sla_seconds) ++stats.sla_violations;
    backlog = std::max(0.0, backlog - req.remaining);
    cursor = finish;
  }
  state.backlog = backlog;
  state.ready_at = common::Seconds{std::min(cursor, t1.value)};
  return stats;
}

void prepend(std::vector<Pending>& buf, std::size_t at,
             std::span<const Pending> batch, FifoState& state) {
  for (const Pending& p : batch) state.backlog += p.remaining;
  buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(at), batch.begin(),
             batch.end());
}

}  // namespace eclb::workload::engine
