// Which VM ShedOverloaded moves next (the R4/R5 rule of Section 4).
//
// The rule walks the donor's roster by demand, largest first, and moves the
// first VM whose demand is below the phase's negative-result bar and that
// the leader finds a home for; every miss lowers the bar to the missed
// demand.  Its reference form sorts the whole roster once per migration,
// which costs an R5 host carrying k VMs O(k^2 log k) per shed.
// pick_shed_vm makes the same find_target calls, in the same order, with
// one linear scan per call: the largest demand below the bar is the next
// value the sorted walk would try.  When several VMs share that demand the
// walk's answer is whichever of them std::sort put first, which an unstable
// sort above 16 elements does not tie to roster order -- so a tie falls back
// to the sorted walk itself.  The walk is kept verbatim as the test oracle
// (tests/support/shed_oracle.h).
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "vm/vm.h"

namespace eclb::cluster::protocol {

/// The VM to shed and the server the leader found for it.
struct ShedPick {
  const vm::Vm* vm{nullptr};  ///< nullptr: no VM below the bar has a home.
  common::ServerId target{};
};

/// Picks the VM of `roster` to shed.  `find_target(demand)` is the leader's
/// search (std::optional<common::ServerId>); `min_failed_demand` is the
/// shed phase's bar, lowered to each demand the search misses.
template <class FindTarget>
[[nodiscard]] ShedPick pick_shed_vm(std::span<const vm::Vm> roster,
                                    double& min_failed_demand,
                                    FindTarget&& find_target) {
  for (;;) {
    const vm::Vm* best = nullptr;
    bool tied = false;
    for (const vm::Vm& v : roster) {
      if (v.demand() >= min_failed_demand) continue;
      if (best == nullptr || v.demand() > best->demand()) {
        best = &v;
        tied = false;
      } else if (v.demand() == best->demand()) {
        tied = true;
      }
    }
    if (best == nullptr) return {};
    if (tied) break;
    const std::optional<common::ServerId> target = find_target(best->demand());
    if (target.has_value()) return {best, *target};
    min_failed_demand = best->demand();
  }

  // A tie on the largest demand below the bar: std::sort's order decides.
  std::vector<const vm::Vm*> candidates;
  candidates.reserve(roster.size());
  for (const vm::Vm& v : roster) candidates.push_back(&v);
  std::sort(candidates.begin(), candidates.end(),
            [](const vm::Vm* a, const vm::Vm* b) {
              return a->demand() > b->demand();
            });
  for (const vm::Vm* v : candidates) {
    if (v->demand() >= min_failed_demand) continue;
    const std::optional<common::ServerId> target = find_target(v->demand());
    if (!target.has_value()) {
      min_failed_demand = v->demand();
      continue;
    }
    return {v, *target};
  }
  return {};
}

}  // namespace eclb::cluster::protocol
