#include <limits>

#include "cluster/protocol/actions.h"
#include "cluster/protocol/view.h"

namespace eclb::cluster::protocol {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

void rebalance_above_center(ClusterView& view) {
  const common::Seconds now = view.now();

  // Even-distribution pass: a server operating above the center of its
  // optimal region offers its smallest VM to a peer that remains *below its
  // own* center after accepting.  Because donors are above center and
  // receivers stay below center, a VM never bounces back; the pass dies out
  // once no below-center capacity remains (always, at high cluster load).
  //
  // Same negative-result cache as the shed phase: receivers only gain load
  // during this pass, so a failed demand stays failed.
  double min_failed_demand = std::numeric_limits<double>::infinity();
  // Cursor over the above-center membership set (id order).  Receivers stay
  // at or below their own center, so nothing *enters* the set mid-pass;
  // donors that drop below center simply stop being visited -- exactly the
  // servers the legacy scan's visit-time checks would have skipped.
  for (auto sid = view.next_above_center(std::nullopt); sid.has_value();
       sid = view.next_above_center(sid)) {
    auto& s = view.server(*sid);
    if (!s.awake(now)) continue;
    if (view.degraded(s.id())) continue;  // no migrations off a minority side
    if (s.vm_count() == 0) continue;
    const double center = s.thresholds().optimal_center();
    if (s.load() <= center + kEps) continue;

    // Smallest VM first: fine-grained moves converge without overshooting.
    const vm::Vm* smallest = nullptr;
    for (const auto& v : s.vms()) {
      if (smallest == nullptr || v.demand() < smallest->demand()) smallest = &v;
    }
    if (smallest == nullptr) continue;
    // Do not overshoot out of the optimal region from above.
    if (s.load() - smallest->demand() < s.thresholds().alpha_opt_low - kEps) {
      continue;
    }
    if (smallest->demand() >= min_failed_demand) continue;
    const auto target_id =
        view.find_below_center_target(smallest->demand(), s.id());
    if (!target_id.has_value()) {
      min_failed_demand = smallest->demand();
      continue;
    }
    (void)view.migrate(s, smallest->id(), *target_id,
                       MigrationCause::kRebalance);
  }
}

}  // namespace eclb::cluster::protocol
