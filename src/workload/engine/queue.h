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
// Storage belongs to the caller.  A queue is a run of Pending entries,
// oldest first, plus a FifoState: its remaining work and the time its
// server frees.  The request driver keeps every VM's run in one contiguous
// carry buffer, rebuilt in VM visit order each window, and each migration
// drain residue in a small vector of its own.  Both go through the one
// serve kernel below, and an expiring residue re-joins its VM through
// prepend().
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/assert.h"
#include "common/units.h"
#include "workload/engine/arrivals.h"
#include "workload/engine/latency.h"

namespace eclb::workload::engine {

/// One queued request.
struct Pending {
  common::Seconds arrival{};
  double remaining{0.0};  ///< Capacity-seconds of work left.
};

/// The per-queue state that lives beside its run of requests.
struct FifoState {
  double backlog{0.0};  ///< Remaining work in the queue, capacity-seconds.
  common::Seconds ready_at{common::Seconds{0.0}};  ///< Server-free time.
};

/// What one serve window completed.
struct QueueServeStats {
  std::size_t completed{0};       ///< Requests finished in the window.
  std::size_t sla_violations{0};  ///< Finished with sojourn > the SLA.
};

/// Enqueues `r` at the back of the queue whose run ends `run`'s contents
/// (callers push in arrival order).
inline void push(std::vector<Pending>& run, FifoState& state,
                 const Request& r) {
  ECLB_ASSERT(r.service > 0.0, "request queue: service work must be > 0");
  run.push_back(Pending{r.arrival, r.service});
  state.backlog += r.service;
}

/// Serves the queue `pending` (oldest first) over the window [t0, t1) at
/// `rate` capacity-seconds per second (the VM's granted share; 0 while the
/// host is overloaded away or gone).  Completed sojourns are recorded into
/// `hist` and checked against `sla_seconds`.  The first `completed` entries
/// are done and the caller removes them; partial work on the next one is
/// banked in place and carries over.
QueueServeStats serve(std::span<Pending> pending, FifoState& state,
                      common::Seconds t0, common::Seconds t1, double rate,
                      double sla_seconds, LatencyHistogram* hist);

/// Splices `batch` into `buf` at `at`, in front of the queue whose run
/// starts there, preserving the batch's internal order and adding its work
/// to `state` -- so a drain residue re-joins ahead of the requests that
/// arrived after the migration.  `batch` must not alias `buf`.
void prepend(std::vector<Pending>& buf, std::size_t at,
             std::span<const Pending> batch, FifoState& state);

}  // namespace eclb::workload::engine
