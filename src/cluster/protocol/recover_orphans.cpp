// Crash recovery: the first action of every round.
//
// Each orphan (a VM displaced by a server crash) is re-placed through the
// configured placement policy, excluding its crashed origin.  When no live
// server has room the lost demand is an SLA violation for this interval, the
// leader is asked to wake a sleeper, and the orphan stays queued -- the next
// round retries with the extra capacity online.

#include "cluster/cluster.h"
#include "cluster/config.h"
#include "cluster/protocol/actions.h"
#include "cluster/protocol/view.h"

namespace eclb::cluster::protocol {

void recover_orphans(ClusterView& view) {
  if (!view.has_orphans()) return;
  const auto pending = view.take_orphans();
  for (const auto& orphan : pending) {
    if (view.degraded(orphan.origin)) {
      // A minority-side orphan cannot be re-placed (its side has no spare
      // capacity authority and the quorum already shadow-restarted it);
      // book the unserved demand and wait for the heal.
      view.recorder().sla_violation(orphan.demand, orphan.origin);
      view.requeue_orphan(orphan);
      continue;
    }
    const auto target = view.pick_horizontal_target(orphan.demand, orphan.origin);
    if (target.has_value()) {
      view.replace_orphan(*target, orphan);
      continue;
    }
    // No room (or no leader): the displaced demand goes unserved this
    // interval; wake capacity and keep the orphan for the next round.
    view.recorder().sla_violation(orphan.demand, orphan.origin);
    view.request_wake(orphan.origin);
    view.requeue_orphan(orphan);
  }
}

}  // namespace eclb::cluster::protocol
