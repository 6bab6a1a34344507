#include <limits>

#include "cluster/config.h"
#include "cluster/protocol/actions.h"
#include "cluster/protocol/shed_pick.h"
#include "cluster/protocol/view.h"

namespace eclb::cluster::protocol {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

bool ShedOverloaded::enabled(const ClusterConfig& config) const {
  return config.regime_actions_enabled;
}

void ShedOverloaded::run(ClusterView& view) {
  const ClusterConfig& config = view.config();
  const common::Seconds now = view.now();

  // R5 first (urgent), then R4: migrate VMs away toward the optimal region.
  // R4 servers are throttled to the per-interval send budget; R5 servers
  // (and any oversubscribed server) may exceed it -- the undesirable-high
  // region demands immediate action (Section 4).
  // Negative-result cache for the whole shed phase: target loads only grow
  // while shedding, so a demand that found no home cannot find one later in
  // the phase.  Bounds the number of full leader scans per interval.
  double min_failed_demand = std::numeric_limits<double>::infinity();

  for (auto urgency : {energy::Regime::kR5UndesirableHigh,
                       energy::Regime::kR4SuboptimalHigh}) {
    // Cursor over the urgency bucket (id order).  Shedding only shrinks the
    // R4/R5 buckets mid-pass -- targets must end within their optimal
    // region -- so the walk visits exactly the servers the legacy full scan
    // would have accepted at visit time; the checks below stay as the
    // authoritative filter either way.
    for (auto sid = view.next_in_regime(urgency, std::nullopt);
         sid.has_value(); sid = view.next_in_regime(urgency, sid)) {
      auto& s = view.server(*sid);
      if (!s.awake(now)) continue;
      if (view.degraded(s.id())) continue;  // no migrations off a minority side
      const auto r = s.regime();
      if (!r.has_value() || *r != urgency) continue;

      const bool urgent = urgency == energy::Regime::kR5UndesirableHigh;
      std::size_t sends_left =
          urgent ? s.vm_count() : config.max_sends_per_interval;
      while (sends_left > 0 && s.load() > s.thresholds().alpha_opt_high + kEps) {
        // Move the largest VM that still has a home elsewhere; big moves
        // need the fewest migrations to reach the optimal region.
        const ShedPick pick = pick_shed_vm(
            s.vms(), min_failed_demand, [&](double demand) {
              return view.find_target(demand, s.id(),
                                      policy::PlacementTier::kStayOptimal);
            });
        const bool moved =
            pick.vm != nullptr &&
            view.migrate(s, pick.vm->id(), pick.target, MigrationCause::kShed);
        if (!moved) {
          if (urgent) {
            // The R5 rule: when no partner exists, the leader wakes one or
            // more sleeping servers (usable once their wake completes).
            view.request_wake(s.id());
          }
          break;
        }
        --sends_left;
      }
    }
  }
}

}  // namespace eclb::cluster::protocol
