#include "cluster/config.h"
#include "cluster/protocol/actions.h"
#include "cluster/protocol/view.h"

namespace eclb::cluster::protocol {

void run_round(ClusterView& view) {
  const ClusterConfig& config = view.config();
  // Recovery runs first: a healed partition reconciles before anything else
  // (so the round sees one membership), then orphaned demand is re-placed
  // before the round evolves demand and rebalances, so the fleet the later
  // actions see is already whole (or the deficit is booked as an SLA
  // violation).
  reconcile_partitions(view);
  recover_orphans(view);
  evolve_and_scale(view);
  if (config.regime_actions_enabled) {
    shed_overloaded(view);
    if (config.rebalance_enabled) rebalance_above_center(view);
    if (config.allow_sleep) drain_and_sleep(view);
  }
  serve_and_account(view);
  regime_report(view);
}

}  // namespace eclb::cluster::protocol
