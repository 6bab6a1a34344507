// The cluster leader's sleep arbitration.
//
// Section 4's protocol routes every placement decision through a
// per-cluster leader that knows each member's regime.  The leader's
// matchmaking queries -- the tiered and below-center placement searches,
// the drain search and the wake pick -- are answered by the cluster's
// regime index (cluster/index/regime_index.h); what remains here is the
// sleep-depth rule that needs cluster-wide judgment.
#pragma once

#include "energy/cstates.h"

namespace eclb::cluster {

/// Leader decision logic that is not a fleet query.
class Leader {
 public:
  /// The Section 6 rule: when cluster load exceeds `threshold` (default
  /// 60 %) new sleepers go to C3 (fast wake likely needed soon); below it
  /// they go to C6 (deep sleep, demand unlikely to return quickly).
  [[nodiscard]] static energy::CState choose_sleep_state(double cluster_load_fraction,
                                                         double threshold = 0.60);
};

}  // namespace eclb::cluster
