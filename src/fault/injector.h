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

/// A run's resilience figures across a fabric's shards: a read-out of the
/// clusters' recorder totals (obs/counters.h defines each count) and
/// resilience samples, filled only by FabricFaultSession::combined_stats.
struct ResilienceStats {
  std::size_t crashes{0};
  std::size_t recoveries{0};
  std::size_t failovers{0};
  std::size_t dropped_messages{0};
  std::size_t retried_messages{0};
  std::size_t migration_failures{0};
  std::size_t partitions{0};
  std::size_t heals{0};
  std::size_t fenced_commands{0};
  std::size_t shadow_restarts{0};
  std::size_t duplicates_resolved{0};
  std::size_t orphans_adopted{0};
  common::RunningStats repair_time;       ///< Crash -> service-restored (s).
  common::RunningStats failover_outage;   ///< Leaderless windows (s).
  common::RunningStats heal_convergence;  ///< Heal -> reconciled (s).

  /// Mean time to repair: average seconds from a crash until its last
  /// displaced VM is running again; 0 when no episode completed.
  [[nodiscard]] double mttr() const { return repair_time.mean(); }
};

/// Owns the link table and the fault RNG stream for one cluster + plan
/// pairing.  It counts nothing: the cluster's recorder books every fault.
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

 private:
  void apply(const FaultEvent& event);

  cluster::Cluster& cluster_;
  FaultPlan plan_;
  common::Rng rng_;            ///< The fault stream -- never the cluster's.
  network::LinkTable links_;
  double migration_failure_rate_{0.0};
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

  /// The resilience figures: every shard's recorder totals summed and its
  /// samples merged, in shard order.
  [[nodiscard]] ResilienceStats combined_stats() const;

 private:
  const cluster::Fabric& fabric_;
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
};

}  // namespace eclb::fault
