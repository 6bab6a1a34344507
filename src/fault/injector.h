// The fault injector: compiles a FaultPlan onto a cluster's event kernel
// and implements the cluster's FaultRuntime contract.
//
// Construction schedules every plan event at its exact simulation time and
// installs the injector as the cluster's fault runtime; destruction detaches
// it.  All fault randomness (link loss draws, migration aborts) comes from
// the injector's own xoshiro stream seeded by the plan, so a given
// (cluster seed, plan) pair is bit-reproducible -- and an EMPTY plan
// consumes no randomness and schedules nothing, leaving the run
// bit-identical to one without the fault layer.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fabric.h"
#include "cluster/faults.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "fault/fault_plan.h"
#include "network/topology.h"

namespace eclb::fault {

/// Resilience accounting the injector collects across a run (MTTR, message
/// loss, failover outages) -- the fault-side complement of the per-interval
/// counters in cluster::IntervalReport.
struct ResilienceStats {
  std::size_t crashes{0};             ///< Plan-injected server crashes.
  std::size_t recoveries{0};          ///< Plan-injected repairs.
  std::size_t failovers{0};           ///< Leader re-elections.
  std::size_t dropped_messages{0};    ///< Control messages lost on faulty links.
  std::size_t retried_messages{0};    ///< Dropped messages re-sent with backoff.
  std::size_t migration_failures{0};  ///< Live migrations aborted mid-copy.
  std::size_t partitions{0};          ///< Plan-injected fabric splits.
  std::size_t heals{0};               ///< Plan-injected fabric heals.
  std::size_t fenced_commands{0};     ///< Stale-epoch commands dropped.
  std::size_t shadow_restarts{0};     ///< Quorum-side shadow VM restarts.
  std::size_t duplicates_resolved{0};  ///< Shadows retired at reconciliation.
  std::size_t orphans_adopted{0};     ///< Shadows adopted (original lost).
  common::RunningStats repair_time;   ///< Crash -> service-restored samples.
  common::RunningStats failover_outage;  ///< Leaderless windows, in seconds.
  common::RunningStats heal_convergence;  ///< Heal -> reconciled, in seconds.

  /// Mean time to repair: average seconds from a crash until its last
  /// displaced VM is running again; 0 when no episode completed.
  [[nodiscard]] double mttr() const { return repair_time.mean(); }
};

/// Owns the link table, the fault RNG stream and the resilience statistics
/// for one cluster + plan pairing.
class FaultInjector final : public cluster::FaultRuntime {
 public:
  /// Schedules `plan` onto `cluster`'s kernel and installs itself as the
  /// cluster's fault runtime.  The cluster must outlive the injector.
  FaultInjector(cluster::Cluster& cluster, FaultPlan plan);
  ~FaultInjector() override;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// The plan this injector executes.
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  /// Accumulated resilience statistics.
  [[nodiscard]] const ResilienceStats& stats() const { return stats_; }
  /// The star fabric's per-host link state (tests poke individual links).
  [[nodiscard]] network::LinkTable& links() { return links_; }
  /// Current mid-copy migration failure probability.
  [[nodiscard]] double migration_failure_rate() const {
    return migration_failure_rate_;
  }

  // --- cluster::FaultRuntime ------------------------------------------------

  [[nodiscard]] bool deliver(cluster::MessageKind kind,
                             common::ServerId server) override;
  [[nodiscard]] common::Seconds link_delay(
      common::ServerId server) const override;
  [[nodiscard]] bool migration_fails(common::ServerId source,
                                     common::ServerId target) override;
  [[nodiscard]] common::Seconds retry_backoff(
      std::size_t attempt) const override;
  [[nodiscard]] std::size_t max_retries() const override;
  [[nodiscard]] common::Seconds heartbeat_period() const override;
  [[nodiscard]] std::size_t failover_after_missed() const override;
  void note_dropped(cluster::MessageKind kind, std::size_t n) override;
  void note_retried(cluster::MessageKind kind) override;
  void note_failover(common::Seconds outage) override;
  void note_repair(common::Seconds repair_time) override;
  void note_fenced(cluster::MessageKind kind) override;
  void note_shadow_started() override;
  void note_reconciled(common::Seconds convergence,
                       std::size_t duplicates_resolved,
                       std::size_t orphans_adopted) override;

 private:
  void apply(const FaultEvent& event);

  cluster::Cluster& cluster_;
  FaultPlan plan_;
  common::Rng rng_;            ///< The fault stream -- never the cluster's.
  network::LinkTable links_;
  double migration_failure_rate_{0.0};
  ResilienceStats stats_;
};

/// Fault injection across a sharded fabric: one FaultInjector per shard,
/// each running the same plan on its own kernel with its own fault stream
/// seeded by Fabric::shard_seed(plan seed, shard, shards) -- the same
/// derivation the fabric uses for cluster seeds, so (fabric seed, plan seed)
/// fully determines every shard's fault schedule regardless of thread count,
/// and a 1-shard session is a plain FaultInjector on the plan.
/// The fabric must outlive the session.
class FabricFaultSession {
 public:
  FabricFaultSession(cluster::Fabric& fabric, const FaultPlan& plan);
  FabricFaultSession(const FabricFaultSession&) = delete;
  FabricFaultSession& operator=(const FabricFaultSession&) = delete;

  /// Shard `i`'s injector.
  [[nodiscard]] const FaultInjector& injector(std::size_t i) const {
    return *injectors_.at(i);
  }
  /// Number of per-shard injectors (== the fabric's shard count).
  [[nodiscard]] std::size_t size() const { return injectors_.size(); }

  /// Resilience statistics summed across all shards (RunningStats merged
  /// sample-set over sample-set).
  [[nodiscard]] ResilienceStats combined_stats() const;

 private:
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
};

}  // namespace eclb::fault
