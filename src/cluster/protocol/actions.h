// The concrete Section 4 actions, in round order.
//
// EvolveAndScale   -- demand evolution + vertical/horizontal scaling,
// ShedOverloaded   -- R5 then R4 shed VMs toward the optimal region,
// RebalanceAboveCenter -- even-distribution pass above the optimal center,
// DrainAndSleep    -- R1 consolidation, the 60 % sleep rule and C1 parking,
// ServeAndAccount  -- SLA / QoS violation accounting,
// RegimeReport     -- the per-interval j_k regime reports to the leader.
//
// RequestWake is not part of the fixed sequence; it is the leader's wake
// arbitration, invoked by other actions through ClusterView::request_wake.
#pragma once

#include "cluster/protocol/action.h"

namespace eclb::cluster::protocol {

/// Anti-entropy reconciliation after a partition heals: merges the sides'
/// membership under the highest-epoch leader, resolves shadow-restarted
/// duplicates and adopts stranded VMs.  No-op (and zero-cost) unless a heal
/// is pending.
class ReconcilePartitions final : public ProtocolAction {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "reconcile-partitions";
  }
  void run(ClusterView& view) override;
};

/// Crash recovery, first in the round: re-places orphaned VMs onto live
/// servers through the placement policy; unplaceable orphans count an SLA
/// violation, trigger a wake request and stay queued for the next round.
/// No-op (and zero-cost) while no orphans are pending.
class RecoverOrphans final : public ProtocolAction {
 public:
  [[nodiscard]] std::string_view name() const override { return "recover-orphans"; }
  void run(ClusterView& view) override;
};

/// Demand evolution and the scaling ladder: shrink locally for free, grow
/// vertically when tolerable, otherwise horizontally through the placement
/// policy, otherwise offload, otherwise wake a sleeper and record the miss.
class EvolveAndScale final : public ProtocolAction {
 public:
  [[nodiscard]] std::string_view name() const override { return "evolve-and-scale"; }
  void run(ClusterView& view) override;
};

/// R5 (urgent) then R4 servers migrate VMs away until they re-enter the
/// optimal region; R5 may wake sleepers when no partner exists.
class ShedOverloaded final : public ProtocolAction {
 public:
  [[nodiscard]] std::string_view name() const override { return "shed-overloaded"; }
  [[nodiscard]] bool enabled(const ClusterConfig& config) const override;
  void run(ClusterView& view) override;
};

/// Even-distribution pass: above-center servers push their smallest VM to a
/// peer that stays below its own center (monotone, self-quenching).
class RebalanceAboveCenter final : public ProtocolAction {
 public:
  [[nodiscard]] std::string_view name() const override { return "rebalance-above-center"; }
  [[nodiscard]] bool enabled(const ClusterConfig& config) const override;
  void run(ClusterView& view) override;
};

/// R1 consolidation (uphill drains), the guarded deep-sleep passes and C1
/// parking of empty servers.
class DrainAndSleep final : public ProtocolAction {
 public:
  [[nodiscard]] std::string_view name() const override { return "drain-and-sleep"; }
  [[nodiscard]] bool enabled(const ClusterConfig& config) const override;
  void run(ClusterView& view) override;
};

/// The leader's wake arbitration: wake the shallowest settled sleeper and
/// stamp its anti-thrash cooldown.  Invoked via ClusterView::request_wake.
class RequestWake final : public ProtocolAction {
 public:
  [[nodiscard]] std::string_view name() const override { return "request-wake"; }
  void run(ClusterView& view) override;
};

/// End-of-round accounting: QoS violations against the response-time cap and
/// SLA violations for oversubscribed servers.
class ServeAndAccount final : public ProtocolAction {
 public:
  [[nodiscard]] std::string_view name() const override { return "serve-and-account"; }
  void run(ClusterView& view) override;
};

/// Every server outside R3 reports its regime to the leader (j_k traffic).
class RegimeReport final : public ProtocolAction {
 public:
  [[nodiscard]] std::string_view name() const override { return "regime-report"; }
  void run(ClusterView& view) override;
};

}  // namespace eclb::cluster::protocol
