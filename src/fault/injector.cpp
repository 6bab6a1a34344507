#include "fault/injector.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace eclb::fault {

FaultInjector::FaultInjector(cluster::Cluster& cluster, FaultPlan plan)
    : cluster_(cluster),
      plan_(std::move(plan)),
      rng_(plan_.seed()),
      links_(cluster.size()) {
  for (const auto& event : plan_.events()) {
    cluster_.simulation().schedule_at(
        event.at, [this, event](sim::Simulation&) { apply(event); });
  }
  cluster_.install_faults(this);
}

FaultInjector::~FaultInjector() { cluster_.install_faults(nullptr); }

void FaultInjector::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kServerCrash:
      ++stats_.crashes;
      cluster_.crash_server(event.server);
      break;
    case FaultKind::kServerRecover:
      ++stats_.recoveries;
      cluster_.recover_server(event.server);
      break;
    case FaultKind::kLeaderCrash:
      // Resolved at fire time so stacked leader crashes chase the failover
      // chain instead of hitting the original leader twice.
      ++stats_.crashes;
      cluster_.crash_server(cluster_.leader_server());
      break;
    case FaultKind::kLinkLoss:
      links_.set_drop_probability_all(event.value);
      break;
    case FaultKind::kLinkDelay:
      links_.set_delay_all(event.value);
      break;
    case FaultKind::kMigrationFailureRate:
      migration_failure_rate_ = event.value;
      break;
    case FaultKind::kCapacityDerate:
      cluster_.derate_server(event.server, event.value);
      break;
    case FaultKind::kPartitionStart: {
      // Compile the event's member lists into the per-server group map the
      // cluster and the link table share; unlisted servers join group 0.
      std::vector<std::int32_t> group_of(cluster_.size(), 0);
      for (std::size_t g = 0; g < event.groups.size(); ++g) {
        for (const auto id : event.groups[g]) {
          if (!id.valid() || id.index() >= cluster_.size()) continue;
          group_of[id.index()] = static_cast<std::int32_t>(g);
        }
      }
      const std::int32_t quorum = cluster_.begin_partition(group_of);
      if (quorum >= 0) {
        links_.set_partition(group_of, quorum);
        ++stats_.partitions;
      }
      break;
    }
    case FaultKind::kPartitionHeal:
      if (cluster_.membership().partitioned() && !cluster_.reconcile_pending()) {
        links_.clear_partition();
        cluster_.heal_partition();
        ++stats_.heals;
      }
      break;
  }
}

bool FaultInjector::deliver(cluster::MessageKind, common::ServerId server) {
  // LinkTable::deliver never consumes a draw on a loss-free link, so a
  // transparent table keeps the fault stream untouched.
  return links_.deliver(server.index(), rng_);
}

common::Seconds FaultInjector::link_delay(common::ServerId server) const {
  return common::Seconds{links_.delay(server.index())};
}

bool FaultInjector::migration_fails(common::ServerId, common::ServerId) {
  if (migration_failure_rate_ <= 0.0) return false;
  if (!rng_.bernoulli(migration_failure_rate_)) return false;
  ++stats_.migration_failures;
  return true;
}

common::Seconds FaultInjector::retry_backoff(std::size_t attempt) const {
  // Exponential with a ceiling: min(base * 2^(a-1), cap) per 1-based
  // attempt.  The plan's `backoff=` / `cap=` overrides win; unset fields
  // defer to the experiment's ClusterConfig::retry policy.
  const cluster::RetryPolicy& policy = cluster_.config().retry;
  const double base =
      plan_.params().retry_backoff_base.value_or(policy.base_delay).value;
  const double cap =
      plan_.params().retry_backoff_cap.value_or(policy.max_delay).value;
  double factor = 1.0;
  for (std::size_t i = 1; i < attempt; ++i) factor *= 2.0;
  return common::Seconds{std::min(base * factor, cap)};
}

std::size_t FaultInjector::max_retries() const {
  return plan_.params().max_retries.value_or(cluster_.config().retry.max_attempts);
}

common::Seconds FaultInjector::heartbeat_period() const {
  // An empty plan runs no heartbeat: no extra messages, no extra energy, so
  // the no-fault benches stay byte-identical with the injector installed.
  if (plan_.empty()) return common::Seconds{0.0};
  return plan_.params().heartbeat_period;
}

std::size_t FaultInjector::failover_after_missed() const {
  return plan_.params().failover_after_missed;
}

void FaultInjector::note_dropped(cluster::MessageKind, std::size_t n) {
  stats_.dropped_messages += n;
}

void FaultInjector::note_retried(cluster::MessageKind) {
  ++stats_.retried_messages;
}

void FaultInjector::note_failover(common::Seconds outage) {
  ++stats_.failovers;
  stats_.failover_outage.add(outage.value);
}

void FaultInjector::note_repair(common::Seconds repair_time) {
  stats_.repair_time.add(repair_time.value);
}

void FaultInjector::note_fenced(cluster::MessageKind) {
  ++stats_.fenced_commands;
}

void FaultInjector::note_shadow_started() { ++stats_.shadow_restarts; }

void FaultInjector::note_reconciled(common::Seconds convergence,
                                    std::size_t duplicates_resolved,
                                    std::size_t orphans_adopted) {
  stats_.duplicates_resolved += duplicates_resolved;
  stats_.orphans_adopted += orphans_adopted;
  stats_.heal_convergence.add(convergence.value);
}

FabricFaultSession::FabricFaultSession(cluster::Fabric& fabric,
                                       const FaultPlan& plan) {
  injectors_.reserve(fabric.size());
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    FaultPlan shard_plan = plan;
    // The fabric's cluster-seed derivation: shard i's injected randomness
    // is a pure function of (plan seed, i), never of sibling activity, and a
    // lone shard runs the plan's own stream.
    shard_plan.set_seed(
        cluster::Fabric::shard_seed(plan.seed(), i, fabric.size()));
    injectors_.push_back(std::make_unique<FaultInjector>(
        fabric.mutable_cluster(i), std::move(shard_plan)));
  }
}

ResilienceStats FabricFaultSession::combined_stats() const {
  ResilienceStats total;
  for (const auto& inj : injectors_) {
    const ResilienceStats& s = inj->stats();
    total.crashes += s.crashes;
    total.recoveries += s.recoveries;
    total.failovers += s.failovers;
    total.dropped_messages += s.dropped_messages;
    total.retried_messages += s.retried_messages;
    total.migration_failures += s.migration_failures;
    total.partitions += s.partitions;
    total.heals += s.heals;
    total.fenced_commands += s.fenced_commands;
    total.shadow_restarts += s.shadow_restarts;
    total.duplicates_resolved += s.duplicates_resolved;
    total.orphans_adopted += s.orphans_adopted;
    total.repair_time.merge(s.repair_time);
    total.failover_outage.merge(s.failover_outage);
    total.heal_convergence.merge(s.heal_convergence);
  }
  return total;
}

}  // namespace eclb::fault
