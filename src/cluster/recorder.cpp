#include "cluster/recorder.h"

#include "obs/counters.h"

namespace eclb::cluster {

std::string_view to_string(DecisionKind k) {
  switch (k) {
    case DecisionKind::kLocal: return "local";
    case DecisionKind::kInCluster: return "in-cluster";
  }
  return "?";
}

std::string_view to_string(MigrationCause c) {
  switch (c) {
    case MigrationCause::kShed: return "shed";
    case MigrationCause::kRebalance: return "rebalance";
    case MigrationCause::kConsolidation: return "consolidation";
  }
  return "?";
}

std::string_view to_string(ProtocolEvent::Kind k) {
  switch (k) {
    case ProtocolEvent::Kind::kDecision: return "decision";
    case ProtocolEvent::Kind::kMigration: return "migration";
    case ProtocolEvent::Kind::kHorizontalStart: return "horizontal_start";
    case ProtocolEvent::Kind::kOffload: return "offload";
    case ProtocolEvent::Kind::kDrain: return "drain";
    case ProtocolEvent::Kind::kSleep: return "sleep";
    case ProtocolEvent::Kind::kWake: return "wake";
    case ProtocolEvent::Kind::kSlaViolation: return "sla_violation";
    case ProtocolEvent::Kind::kQosViolation: return "qos_violation";
    case ProtocolEvent::Kind::kServerCrash: return "server_crash";
    case ProtocolEvent::Kind::kServerRecover: return "server_recover";
    case ProtocolEvent::Kind::kLeaderFailover: return "leader_failover";
    case ProtocolEvent::Kind::kMessageDropped: return "message_dropped";
    case ProtocolEvent::Kind::kMessageRetried: return "message_retried";
    case ProtocolEvent::Kind::kOrphanReplaced: return "orphan_replaced";
    case ProtocolEvent::Kind::kMigrationFailed: return "migration_failed";
    case ProtocolEvent::Kind::kCapacityDerate: return "capacity_derate";
    case ProtocolEvent::Kind::kPartitionStart: return "partition_start";
    case ProtocolEvent::Kind::kPartitionHeal: return "partition_heal";
    case ProtocolEvent::Kind::kCommandFenced: return "command_fenced";
    case ProtocolEvent::Kind::kShadowStart: return "shadow_start";
    case ProtocolEvent::Kind::kDuplicateResolved: return "duplicate_resolved";
    case ProtocolEvent::Kind::kReconcile: return "reconcile";
    case ProtocolEvent::Kind::kRequestBatch: return "request_batch";
    case ProtocolEvent::Kind::kWakeSleepFlap: return "wake_sleep_flap";
    case ProtocolEvent::Kind::kShadowAdopted: return "shadow_adopted";
  }
  return "?";
}

void ClusterObserver::on_interval_begin(std::size_t, common::Seconds) {}
void ClusterObserver::on_event(const ProtocolEvent&) {}
void ClusterObserver::on_interval_end(const IntervalReport&, common::Seconds) {}
void ClusterObserver::on_phase(std::string_view, double) {}

void IntervalRecorder::begin_interval(std::size_t index) {
  // finish() already reset the counters; only the stamp changes here.  Fault
  // events recorded between rounds (retry timers, scheduled crashes) stay in
  // the accumulating report and roll into this interval.
  report_.interval_index = index;
}

void IntervalRecorder::emit(ProtocolEvent event) {
  event.interval = report_.interval_index;
  if (sink_) sink_(event);
}

void IntervalRecorder::local_decision(common::ServerId server) {
  ++report_.local_decisions;
  emit({.kind = ProtocolEvent::Kind::kDecision,
        .server = server,
        .decision = DecisionKind::kLocal});
}

void IntervalRecorder::migration(MigrationCause cause, common::ServerId target) {
  ++report_.in_cluster_decisions;
  ++report_.migrations;
  switch (cause) {
    case MigrationCause::kShed: ++report_.shed_migrations; break;
    case MigrationCause::kRebalance: ++report_.rebalance_migrations; break;
    case MigrationCause::kConsolidation:
      ++report_.consolidation_migrations;
      break;
  }
  emit({.kind = ProtocolEvent::Kind::kMigration,
        .server = target,
        .cause = cause});
  emit({.kind = ProtocolEvent::Kind::kDecision,
        .server = target,
        .decision = DecisionKind::kInCluster});
}

void IntervalRecorder::horizontal_start(common::ServerId target) {
  ++report_.in_cluster_decisions;
  ++report_.horizontal_starts;
  emit({.kind = ProtocolEvent::Kind::kHorizontalStart, .server = target});
  emit({.kind = ProtocolEvent::Kind::kDecision,
        .server = target,
        .decision = DecisionKind::kInCluster});
}

void IntervalRecorder::offloaded() {
  ++report_.offloaded_requests;
  emit({.kind = ProtocolEvent::Kind::kOffload});
}

void IntervalRecorder::drained(common::ServerId server) {
  ++report_.drains;
  emit({.kind = ProtocolEvent::Kind::kDrain, .server = server});
}

void IntervalRecorder::sleep_begun(common::ServerId server) {
  ++report_.sleeps;
  emit({.kind = ProtocolEvent::Kind::kSleep, .server = server});
}

void IntervalRecorder::wake_begun(common::ServerId server) {
  ++report_.wakes;
  emit({.kind = ProtocolEvent::Kind::kWake, .server = server});
}

void IntervalRecorder::sla_violation(double unserved, common::ServerId server) {
  ++report_.sla_violations;
  report_.unserved_demand += unserved;
  emit({.kind = ProtocolEvent::Kind::kSlaViolation,
        .server = server,
        .unserved = unserved});
}

void IntervalRecorder::qos_violation(common::ServerId server) {
  ++report_.qos_violations;
  emit({.kind = ProtocolEvent::Kind::kQosViolation, .server = server});
}

void IntervalRecorder::server_crashed(common::ServerId server) {
  ++report_.crashes;
  emit({.kind = ProtocolEvent::Kind::kServerCrash, .server = server});
}

void IntervalRecorder::server_recovered(common::ServerId server) {
  ++report_.recoveries;
  emit({.kind = ProtocolEvent::Kind::kServerRecover, .server = server});
}

void IntervalRecorder::failover(common::ServerId winner,
                                std::optional<common::Seconds> outage) {
  ++report_.failovers;
  if (outage.has_value()) samples_.failover_outage.add(outage->value);
  emit({.kind = ProtocolEvent::Kind::kLeaderFailover, .server = winner});
}

void IntervalRecorder::message_dropped(MessageKind kind, common::ServerId server) {
  ++report_.dropped_messages;
  emit({.kind = ProtocolEvent::Kind::kMessageDropped,
        .server = server,
        .message = kind});
}

void IntervalRecorder::message_retried(MessageKind kind, common::ServerId server) {
  ++report_.retried_messages;
  emit({.kind = ProtocolEvent::Kind::kMessageRetried,
        .server = server,
        .message = kind});
}

void IntervalRecorder::orphan_replaced(common::ServerId target) {
  ++report_.orphans_replaced;
  emit({.kind = ProtocolEvent::Kind::kOrphanReplaced, .server = target});
}

void IntervalRecorder::crash_repaired(common::Seconds repair_time) {
  samples_.repair_time.add(repair_time.value);
}

void IntervalRecorder::migration_failed(common::ServerId source) {
  ++report_.failed_migrations;
  emit({.kind = ProtocolEvent::Kind::kMigrationFailed, .server = source});
}

void IntervalRecorder::derated(common::ServerId server, double capacity) {
  emit({.kind = ProtocolEvent::Kind::kCapacityDerate,
        .server = server,
        .value = capacity});
}

void IntervalRecorder::partition_started(std::size_t sides) {
  ++report_.partitions;
  emit({.kind = ProtocolEvent::Kind::kPartitionStart,
        .value = static_cast<double>(sides)});
}

void IntervalRecorder::partition_healed() {
  emit({.kind = ProtocolEvent::Kind::kPartitionHeal});
}

void IntervalRecorder::command_fenced(MessageKind kind, common::ServerId server) {
  ++report_.fenced_commands;
  emit({.kind = ProtocolEvent::Kind::kCommandFenced,
        .server = server,
        .message = kind});
}

void IntervalRecorder::shadow_started(common::ServerId target) {
  ++report_.shadow_starts;
  emit({.kind = ProtocolEvent::Kind::kShadowStart, .server = target});
}

void IntervalRecorder::duplicate_resolved(common::ServerId server) {
  ++report_.duplicates_resolved;
  emit({.kind = ProtocolEvent::Kind::kDuplicateResolved, .server = server});
}

void IntervalRecorder::shadow_adopted(common::ServerId server) {
  ++report_.orphans_adopted;
  emit({.kind = ProtocolEvent::Kind::kShadowAdopted, .server = server});
}

void IntervalRecorder::reconciled(common::Seconds convergence,
                                  common::ServerId leader) {
  ++report_.heals;
  samples_.heal_convergence.add(convergence.value);
  emit({.kind = ProtocolEvent::Kind::kReconcile,
        .server = leader,
        .value = convergence.value});
}

void IntervalRecorder::request_batch(std::size_t arrived, std::size_t completed,
                                     std::size_t violated, std::size_t dropped,
                                     std::size_t shed, std::size_t failed,
                                     double backlog) {
  report_.requests_arrived += arrived;
  report_.requests_completed += completed;
  report_.request_sla_violations += violated;
  report_.requests_dropped += dropped;
  report_.requests_shed += shed;
  report_.requests_failed_by_fault += failed;
  report_.request_backlog = backlog;
  emit({.kind = ProtocolEvent::Kind::kRequestBatch,
        .value = backlog,
        .requests_arrived = static_cast<std::uint32_t>(arrived),
        .requests_completed = static_cast<std::uint32_t>(completed),
        .requests_violated = static_cast<std::uint32_t>(violated),
        .requests_dropped = static_cast<std::uint32_t>(dropped),
        .requests_shed = static_cast<std::uint32_t>(shed),
        .requests_failed = static_cast<std::uint32_t>(failed)});
}

void IntervalRecorder::wake_sleep_flap(common::ServerId server) {
  ++report_.wake_sleep_flaps;
  emit({.kind = ProtocolEvent::Kind::kWakeSleepFlap, .server = server});
}

IntervalReport IntervalRecorder::finish(const FleetSnapshot& snapshot) {
  report_.sleeping_servers = snapshot.sleeping_servers;
  report_.parked_servers = snapshot.parked_servers;
  report_.deep_sleeping_servers = snapshot.deep_sleeping_servers;
  report_.failed_servers = snapshot.failed_servers;
  report_.regimes = snapshot.regimes;
  report_.interval_energy = snapshot.interval_energy;
  const IntervalReport done = report_;
  for (const obs::ReportCounter& row : obs::kReportCounters) {
    if (!row.metric.empty()) totals_.*row.field += done.*row.field;
  }
  // Reset for the next window, pre-stamped with the next index so events
  // firing between rounds carry the interval they will be counted in.
  report_ = IntervalReport{};
  report_.interval_index = done.interval_index + 1;
  return done;
}

}  // namespace eclb::cluster
