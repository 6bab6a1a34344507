// Test-only reference for ShedOverloaded's VM pick: the sorted walk the
// shed loop ran before every migration, kept verbatim.  It sorts the whole
// roster by demand (largest first, std::sort, so equal demands land in
// whatever order the unstable sort leaves them), then asks the leader for a
// home for each VM below the phase's negative-result bar in that order,
// lowering the bar at every miss.  protocol::pick_shed_vm must return the
// same VM, make the same find_target calls and leave the same bar.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "cluster/protocol/shed_pick.h"
#include "common/types.h"
#include "vm/vm.h"

namespace eclb::test_support {

template <class FindTarget>
[[nodiscard]] cluster::protocol::ShedPick sorted_shed_pick(
    std::span<const vm::Vm> roster, double& min_failed_demand,
    FindTarget&& find_target) {
  std::vector<const vm::Vm*> candidates;
  candidates.reserve(roster.size());
  for (const auto& v : roster) candidates.push_back(&v);
  std::sort(candidates.begin(), candidates.end(),
            [](const vm::Vm* a, const vm::Vm* b) {
              return a->demand() > b->demand();
            });
  for (const vm::Vm* v : candidates) {
    if (v->demand() >= min_failed_demand) continue;
    const std::optional<common::ServerId> target_id = find_target(v->demand());
    if (!target_id.has_value()) {
      min_failed_demand = v->demand();
      continue;
    }
    return {v, *target_id};
  }
  return {};
}

}  // namespace eclb::test_support
