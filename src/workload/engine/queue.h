// Per-VM FIFO request queues: the layer that turns request backlog into the
// utilization signal the protocol consumes.
//
// A queue holds the requests routed to one VM and serves them in arrival
// order at whatever capacity share the host grants (an exact fluid G/G/1
// model: a request's completion is max(arrival, queue-ready) plus its
// remaining work over the service rate).  Sojourn times land in the shared
// log-scale histogram; the remaining backlog is what the request driver
// converts into the VM's next demand.
//
// Storage is a plain vector: serve walks a head cursor over the requests it
// completes and erases them once at the end of the window.  A queue costs
// one heap block (none until it first holds work), which serve trims back
// when a past burst left it far larger than the current window needed, and
// a vector of queues moves them, rather than copying, when it grows.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.h"
#include "workload/engine/arrivals.h"
#include "workload/engine/latency.h"

namespace eclb::workload::engine {

/// What one serve window completed.
struct QueueServeStats {
  std::size_t completed{0};       ///< Requests finished in the window.
  std::size_t sla_violations{0};  ///< Finished with sojourn > the SLA.
};

/// FIFO queue of requests pending on one VM.
class RequestQueue {
 public:
  /// One queued request (public so migration draining can hand residual
  /// contents between queues without re-synthesizing Request objects).
  struct Pending {
    common::Seconds arrival{};
    double remaining{0.0};  ///< Capacity-seconds of work left.
  };

  /// Enqueues a request (callers push in arrival order).
  void push(const Request& r);

  /// Makes room for `n` more requests without a reallocation per push
  /// (grows by at least half the current capacity, so repeated calls stay
  /// amortized).
  void reserve_more(std::size_t n);

  /// Serves the window [t0, t1) at `rate` capacity-seconds per second (the
  /// VM's granted share; 0 while the host is overloaded away or gone).
  /// Completed sojourns are recorded into `hist` and checked against
  /// `sla_seconds`.  Partial work on the head request carries over.
  QueueServeStats serve(common::Seconds t0, common::Seconds t1, double rate,
                        double sla_seconds, LatencyHistogram* hist);

  /// Requests waiting (including the partially served head).
  [[nodiscard]] std::size_t depth() const { return pending_.size(); }
  /// Remaining work in the queue, capacity-seconds.
  [[nodiscard]] double backlog_work() const { return backlog_work_; }

  /// Drops everything (the VM vanished); returns the number dropped.
  std::size_t drop_all();

  /// Removes and returns every pending request, FIFO order preserved; the
  /// queue is left empty.  The migration-drain handoff uses this to freeze
  /// the source-side backlog.
  [[nodiscard]] std::vector<Pending> take_all();

  /// Splices `batch` in front of the current contents, preserving the
  /// batch's internal order, so a drain residue re-joins ahead of the
  /// requests that arrived after the migration.
  void prepend(std::vector<Pending> batch);

 private:
  std::vector<Pending> pending_;  ///< Oldest first.
  double backlog_work_{0.0};
  common::Seconds ready_at_{common::Seconds{0.0}};  ///< Server-free time.
};

}  // namespace eclb::workload::engine
