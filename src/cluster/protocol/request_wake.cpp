#include "cluster/config.h"
#include "cluster/protocol/actions.h"
#include "cluster/protocol/view.h"

namespace eclb::cluster::protocol {

void request_wake(ClusterView& view) {
  const auto candidate = view.pick_wake_candidate();
  if (!candidate.has_value()) return;
  const HysteresisConfig& hyst = view.config().hysteresis;
  const auto slept = view.last_sleep_interval(*candidate);
  // Minimum dwell: with hysteresis on, a sleeper must stay down for at
  // least min_dwell_intervals before the leader may recall it.  The
  // pressure that wanted the wake persists, so the request simply retries
  // next interval once the dwell expires.  Parked (C1) servers carry no
  // sleep stamp and are never dwell-gated -- their wake is ~free.
  if (hyst.enabled && slept.has_value() &&
      view.interval_index() - *slept < hyst.min_dwell_intervals) {
    return;
  }
  view.send_wake(*candidate);
}

}  // namespace eclb::cluster::protocol
