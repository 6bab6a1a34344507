// The Section 4 actions of one reallocation round, as functions over the
// ClusterView facade.  run_round calls them in this order:
//
// reconcile_partitions   -- anti-entropy merge after a partition heals,
// recover_orphans        -- re-place crash-orphaned VMs,
// evolve_and_scale       -- demand evolution + vertical/horizontal scaling,
// shed_overloaded        -- R5 then R4 shed VMs toward the optimal region,
// rebalance_above_center -- even-distribution pass above the optimal center,
// drain_and_sleep        -- R1 consolidation, the 60 % sleep rule, C1 parking,
// serve_and_account      -- SLA / QoS violation accounting,
// regime_report          -- the per-interval j_k regime reports to the leader.
//
// request_wake is not part of the sequence; it is the leader's wake
// arbitration, invoked by the others through ClusterView::request_wake.
#pragma once

namespace eclb::cluster::protocol {

class ClusterView;

/// One reallocation round: every action above in Section 4 order.  The
/// configuration's master switches gate three of them: shed needs
/// `regime_actions_enabled`, rebalance also `rebalance_enabled`, and
/// drain-and-sleep also `allow_sleep`.
void run_round(ClusterView& view);

/// Anti-entropy reconciliation after a partition heals: merges the sides'
/// membership under the highest-epoch leader, resolves shadow-restarted
/// duplicates and adopts stranded VMs.  No-op (and zero-cost) unless a heal
/// is pending.
void reconcile_partitions(ClusterView& view);

/// Crash recovery: re-places orphaned VMs onto live servers through the
/// placement policy; unplaceable orphans count an SLA violation, trigger a
/// wake request and stay queued for the next round.  No-op (and zero-cost)
/// while no orphans are pending.
void recover_orphans(ClusterView& view);

/// Demand evolution and the scaling ladder: shrink locally for free, grow
/// vertically when tolerable, otherwise horizontally through the placement
/// policy, otherwise offload, otherwise wake a sleeper and record the miss.
void evolve_and_scale(ClusterView& view);

/// R5 (urgent) then R4 servers migrate VMs away until they re-enter the
/// optimal region; R5 may wake sleepers when no partner exists.
void shed_overloaded(ClusterView& view);

/// Even-distribution pass: above-center servers push their smallest VM to a
/// peer that stays below its own center (monotone, self-quenching).
void rebalance_above_center(ClusterView& view);

/// R1 consolidation (uphill drains), the guarded deep-sleep passes and C1
/// parking of empty servers.
void drain_and_sleep(ClusterView& view);

/// End-of-round accounting: QoS violations against the response-time cap and
/// SLA violations for oversubscribed servers.
void serve_and_account(ClusterView& view);

/// Every server outside R3 reports its regime to the leader (j_k traffic).
void regime_report(ClusterView& view);

/// The leader's wake arbitration: pick the shallowest settled sleeper, hold
/// it to the hysteresis dwell, and send it the wake command
/// (ClusterView::send_wake; Cluster::send_wake starts the wake and stamps
/// its anti-thrash cooldown).
void request_wake(ClusterView& view);

}  // namespace eclb::cluster::protocol
