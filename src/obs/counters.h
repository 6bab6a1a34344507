// The report's counters, declared once.
//
// Each row binds one cluster::IntervalReport counter to its JSONL
// `interval_end` key and its registry metric.  The metrics (ClusterProbe),
// the trace writer, the trace parser and the recorder's run totals all walk
// this table, so a new counter is one new row.  Rows are in `interval_end` key order.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

#include "cluster/recorder.h"

namespace eclb::obs {

/// One exported IntervalReport counter.
struct ReportCounter {
  std::size_t cluster::IntervalReport::*field;
  std::string_view trace_key;  ///< `interval_end` key; empty: metric only.
  std::string_view metric;     ///< Registry counter; empty: trace only.
  bool omit_zero;              ///< The trace leaves the key out when zero.
};

/// The table, one row per line.  The migration causes are metric only;
/// `failed` (a fleet snapshot) is trace only.
inline constexpr auto kReportCounters = [] {
  using R = cluster::IntervalReport;
  return std::to_array<ReportCounter>({
      {&R::local_decisions, "local", "protocol.decisions.local", false},
      {&R::in_cluster_decisions, "in_cluster", "protocol.decisions.in_cluster", false},
      {&R::migrations, "migrations", "protocol.migrations", false},
      {&R::shed_migrations, "", "protocol.migrations.shed", false},
      {&R::rebalance_migrations, "", "protocol.migrations.rebalance", false},
      {&R::consolidation_migrations, "", "protocol.migrations.consolidation", false},
      {&R::horizontal_starts, "horizontal_starts", "protocol.horizontal_starts", false},
      {&R::offloaded_requests, "offloads", "protocol.offloads", false},
      {&R::drains, "drains", "protocol.drains", false},
      {&R::sleeps, "sleeps", "protocol.sleeps", false},
      {&R::wakes, "wakes", "protocol.wakes", false},
      {&R::sla_violations, "sla_violations", "protocol.sla_violations", false},
      {&R::qos_violations, "qos_violations", "protocol.qos_violations", false},
      // Fault and request counters are omitted when zero, so a fault-free,
      // engine-off trace keeps the layout it had before those layers.  The
      // fault rows are the run's only fault tally (the resilience trailer
      // reads their sums); each counts:
      // a live server failing (a crash of a dead one counts nothing),
      {&R::crashes, "crashes", "fault.crashes", true},
      // a failed server returning to service,
      {&R::recoveries, "recoveries", "fault.recoveries", true},
      // every leader election: on heartbeat loss and on each side at a split,
      {&R::failovers, "failovers", "fault.failovers", true},
      // a lost command send (one event, however many messages it carried),
      {&R::dropped_messages, "dropped", "fault.dropped_messages", true},
      // a re-send of a lost command that was still due,
      {&R::retried_messages, "retried", "fault.retried_messages", true},
      // a crash-displaced VM restarted on a live server,
      {&R::orphans_replaced, "orphans_replaced", "fault.orphans_replaced", true},
      // a negotiated live migration that aborted mid-copy,
      {&R::failed_migrations, "failed_migrations", "fault.failed_migrations", true},
      // (a snapshot, not a count: servers down at the interval's end),
      {&R::failed_servers, "failed", "", true},
      // a split of two or more sides that took effect,
      {&R::partitions, "partitions", "fault.partitions", true},
      // a completed post-heal reconciliation,
      {&R::heals, "heals", "fault.heals", true},
      // a stale-epoch command dropped by its receiver,
      {&R::fenced_commands, "fenced", "fault.fenced_commands", true},
      // a minority-hosted VM the quorum restarted during a split,
      {&R::shadow_starts, "shadow_starts", "fault.shadow_starts", true},
      // a shadow retired at reconciliation because its original survived,
      {&R::duplicates_resolved, "duplicates_resolved", "fault.duplicates_resolved", true},
      // a shadow kept at reconciliation because its original was lost.
      {&R::orphans_adopted, "orphans_adopted", "fault.orphans_adopted", true},
      {&R::requests_arrived, "requests_arrived", "requests.arrived", true},
      {&R::requests_completed, "requests_completed", "requests.completed", true},
      {&R::request_sla_violations, "requests_violated", "requests.sla_violations", true},
      {&R::requests_dropped, "requests_dropped", "requests.dropped", true},
      {&R::requests_shed, "requests_shed", "requests.shed", true},
      {&R::requests_failed_by_fault, "requests_failed", "requests.failed_by_fault", true},
      {&R::wake_sleep_flaps, "wake_sleep_flaps", "protocol.wake_sleep_flaps", true},
  });
}();

/// The registry metric of `field`'s row; empty when no row exports it.
[[nodiscard]] constexpr std::string_view report_metric(
    std::size_t cluster::IntervalReport::*field) {
  for (const ReportCounter& row : kReportCounters) {
    if (row.field == field) return row.metric;
  }
  return {};
}

// The registry instruments that are not report counters.
inline constexpr std::string_view kIntervalsMetric = "run.intervals";
inline constexpr std::string_view kEnergyMetric = "run.energy_kwh";
inline constexpr std::string_view kUnservedMetric = "protocol.unserved_demand";
inline constexpr std::string_view kBacklogMetric = "requests.backlog_seconds";
inline constexpr std::string_view kDecisionRatioMetric =
    "interval.decision_ratio";

}  // namespace eclb::obs
