// Anti-entropy reconciliation: the first action of every round.
//
// After a fabric heal the membership is still split -- each side carries its
// own leader and epoch, and the quorum may hold shadow restarts of
// applications that kept running on a minority side.  This pass merges the
// views under the surviving highest-epoch leader at a fresh epoch, resolves
// the ledger of shadow placements (original survived -> retire the shadow as
// a duplicate; original lost -> the shadow *is* the surviving instance) and
// emits the heal-convergence metrics.  The regime index needs no rebuild:
// it tracked every server through the split, serving the side-filtered
// searches.
//
// Cluster::reconcile_partitions lives here beside the action that drives it:
// the merge logic is protocol policy, not cluster bookkeeping, and keeping
// the two together makes the reconciliation rules reviewable in one file.

#include <algorithm>
#include <cstddef>
#include <unordered_map>

#include "cluster/cluster.h"
#include "cluster/config.h"
#include "cluster/protocol/actions.h"
#include "cluster/protocol/view.h"
#include "common/assert.h"

namespace eclb::cluster::protocol {

void ReconcilePartitions::run(ClusterView& view) {
  if (!view.reconcile_pending()) return;
  view.reconcile_partitions();
}

}  // namespace eclb::cluster::protocol

namespace eclb::cluster {

void Cluster::reconcile_partitions() {
  if (!reconcile_pending_ || !membership_.partitioned()) return;
  const common::Seconds when = sim_.now();

  // 1. Surviving leader: the live leader operating at the highest epoch
  // wins, provisional or not -- a minority sub-leader that outlived the
  // quorum's incumbent (crashed mid-split) keeps the role.  Epochs are
  // unique across sides, so there are no ties.
  common::ServerId new_leader{};
  Epoch best_epoch = 0;
  for (std::size_t g = 0; g < membership_.side_count(); ++g) {
    const SideState& side = membership_.side(static_cast<std::int32_t>(g));
    if (!side.leader.valid() || server_ref(side.leader).failed()) continue;
    if (side.leader_down) continue;
    if (side.epoch > best_epoch) {
      best_epoch = side.epoch;
      new_leader = side.leader;
    }
  }
  if (!new_leader.valid()) {
    // Every side leader is dead: fall back to the election rule applied
    // fleet-wide -- lowest-id awake live server, else lowest-id live server.
    for (const auto& s : servers_) {
      if (!s.failed() && s.awake(when)) {
        new_leader = s.id();
        break;
      }
    }
    if (!new_leader.valid()) {
      for (const auto& s : servers_) {
        if (!s.failed()) {
          new_leader = s.id();
          break;
        }
      }
    }
  }

  // 2. Resolve the shadow ledger (deterministic: insertion order).  Each
  // shadow is a fresh VM id and the loop only removes shadows, never moves
  // a VM, so one roster pass up front finds every shadow's current host
  // (it may have migrated since the split began).
  std::unordered_map<common::VmId, server::Server*> shadow_host;
  shadow_host.reserve(shadow_ledger_.size());
  for (const auto& entry : shadow_ledger_) {
    const bool fresh = shadow_host.emplace(entry.shadow, nullptr).second;
    ECLB_ASSERT(fresh, "reconcile: shadow listed twice in the ledger");
  }
  for (std::size_t i = 0; !shadow_host.empty() && i < servers_.size(); ++i) {
    for (const auto& v : servers_[i].vms()) {
      const auto it = shadow_host.find(v.id());
      if (it != shadow_host.end()) it->second = &servers_[i];
    }
  }
  for (const auto& entry : shadow_ledger_) {
    server::Server* const host = shadow_host.at(entry.shadow);
    if (host == nullptr) continue;  // shadow died with its host
    server::Server& origin = server_ref(entry.origin);
    const bool original_alive =
        !origin.failed() && origin.find(entry.original) != nullptr;
    if (original_alive) {
      // Both instances survived the split: the original (the older
      // placement) wins and the quorum's shadow is retired.
      auto removed = host->remove(entry.shadow);
      ECLB_ASSERT(removed.has_value(), "reconcile: ledger shadow vanished");
      retire_growth(entry.shadow);
      recorder_.duplicate_resolved(host->id());
      continue;
    }
    // The original was lost (its host crashed during the split): the shadow
    // is adopted as the surviving instance, and the orphan the crash queued
    // for that application is already covered -- drop it and close the
    // crash episode's outstanding count.
    recorder_.shadow_adopted(host->id());
    const auto it = std::find_if(
        orphans_.begin(), orphans_.end(), [&entry](const OrphanVm& o) {
          return o.app == entry.app && o.origin == entry.origin;
        });
    if (it != orphans_.end()) {
      orphans_.erase(it);
      close_crash_outstanding(entry.origin);
    }
  }
  shadow_ledger_.clear();

  // 3. Merge the membership under the survivor at a fresh epoch -- every
  // command still in flight from any pre-heal side is now stale and fences.
  const Epoch fresh = membership_.next_epoch();
  membership_.merge(new_leader, fresh);
  reconcile_pending_ = false;

  // 4. The anti-entropy state exchange itself: one reconcile message per
  // live server across the re-joined star fabric.
  std::size_t live = 0;
  for (const auto& s : servers_) {
    if (!s.failed()) ++live;
  }
  charge_message(MessageKind::kReconcile, live, /*network_energy=*/true);

  const common::Seconds convergence = when - heal_time_;
  recorder_.reconciled(convergence, new_leader);
}

}  // namespace eclb::cluster
