#include "cluster/recorder.h"

#include <gtest/gtest.h>

#include <vector>

namespace eclb::cluster {
namespace {

using common::Joules;
using common::Seconds;
using common::ServerId;

TEST(Recorder, MigrationBooksInClusterDecisionAndCause) {
  IntervalRecorder rec;
  rec.begin_interval(3);
  rec.migration(MigrationCause::kShed, ServerId{1});
  rec.migration(MigrationCause::kShed, ServerId{2});
  rec.migration(MigrationCause::kRebalance, ServerId{3});
  rec.migration(MigrationCause::kConsolidation, ServerId{4});
  const auto& r = rec.current();
  EXPECT_EQ(r.interval_index, 3U);
  EXPECT_EQ(r.migrations, 4U);
  EXPECT_EQ(r.in_cluster_decisions, 4U);
  EXPECT_EQ(r.shed_migrations, 2U);
  EXPECT_EQ(r.rebalance_migrations, 1U);
  EXPECT_EQ(r.consolidation_migrations, 1U);
  EXPECT_EQ(r.local_decisions, 0U);
}

TEST(Recorder, DecisionRatioCountsBothSides) {
  IntervalRecorder rec;
  rec.begin_interval(0);
  rec.local_decision(ServerId{0});
  rec.local_decision(ServerId{1});
  rec.horizontal_start(ServerId{2});
  const auto& r = rec.current();
  EXPECT_EQ(r.local_decisions, 2U);
  EXPECT_EQ(r.in_cluster_decisions, 1U);
  EXPECT_EQ(r.horizontal_starts, 1U);
  EXPECT_DOUBLE_EQ(r.decision_ratio(), 0.5);
}

TEST(Recorder, SlaViolationAccumulatesUnserved) {
  IntervalRecorder rec;
  rec.begin_interval(0);
  rec.sla_violation(0.25, ServerId{0});
  rec.sla_violation(0.5);
  const auto& r = rec.current();
  EXPECT_EQ(r.sla_violations, 2U);
  EXPECT_DOUBLE_EQ(r.unserved_demand, 0.75);
}

TEST(Recorder, FinishResetsCountersForNextInterval) {
  IntervalRecorder rec;
  rec.begin_interval(0);
  rec.local_decision(ServerId{0});
  rec.offloaded();
  rec.drained(ServerId{1});
  (void)rec.finish(FleetSnapshot{});
  const auto& r = rec.current();
  EXPECT_EQ(r.interval_index, 1U);  // pre-stamped with the next index
  EXPECT_EQ(r.local_decisions, 0U);
  EXPECT_EQ(r.offloaded_requests, 0U);
  EXPECT_EQ(r.drains, 0U);
}

TEST(Recorder, SinkSeesEventsInEmissionOrderAcrossFinish) {
  // The recorder keeps no event rows: the sink receives each typed event as
  // it is emitted, in order, stamped with the interval it accrues to.
  IntervalRecorder rec;
  std::vector<ProtocolEvent> events;
  rec.set_sink([&events](const ProtocolEvent& e) { events.push_back(e); });
  rec.begin_interval(2);
  rec.local_decision(ServerId{0});
  rec.migration(MigrationCause::kShed, ServerId{1});
  rec.sla_violation(0.25, ServerId{2});
  ASSERT_EQ(events.size(), 4U);  // migration books its in-cluster decision too
  EXPECT_EQ(events[0].kind, ProtocolEvent::Kind::kDecision);
  EXPECT_EQ(events[1].kind, ProtocolEvent::Kind::kMigration);
  EXPECT_EQ(events[2].kind, ProtocolEvent::Kind::kDecision);
  EXPECT_EQ(events[3].kind, ProtocolEvent::Kind::kSlaViolation);
  for (const auto& e : events) EXPECT_EQ(e.interval, 2U);

  // After finish() the next event already carries the next interval.
  (void)rec.finish(FleetSnapshot{});
  rec.wake_begun(ServerId{3});
  ASSERT_EQ(events.size(), 5U);
  EXPECT_EQ(events[4].kind, ProtocolEvent::Kind::kWake);
  EXPECT_EQ(events[4].interval, 3U);
}

TEST(Recorder, EventsBetweenRoundsAccrueToNextInterval) {
  // Fault events can fire on the kernel between rounds (retry timers,
  // scheduled crashes).  begin_interval must NOT wipe them.
  IntervalRecorder rec;
  rec.begin_interval(0);
  rec.local_decision(ServerId{0});
  (void)rec.finish(FleetSnapshot{});
  // Mid-gap: a crash and a retried wake command land before round 1 opens.
  rec.server_crashed(ServerId{3});
  rec.message_retried(MessageKind::kWakeCommand, ServerId{4});
  rec.begin_interval(1);
  const auto& r = rec.current();
  EXPECT_EQ(r.interval_index, 1U);
  EXPECT_EQ(r.crashes, 1U);
  EXPECT_EQ(r.retried_messages, 1U);
  EXPECT_EQ(r.local_decisions, 0U);  // last round's counters did reset
}

TEST(Recorder, FaultEventsRollUpIntoReport) {
  IntervalRecorder rec;
  std::vector<ProtocolEvent> seen;
  rec.set_sink([&seen](const ProtocolEvent& e) { seen.push_back(e); });
  rec.begin_interval(2);
  rec.server_crashed(ServerId{1});
  rec.failover(ServerId{0});
  rec.message_dropped(MessageKind::kTransferRequest, ServerId{5});
  rec.message_retried(MessageKind::kTransferRequest, ServerId{5});
  rec.orphan_replaced(ServerId{6});
  rec.migration_failed(ServerId{7});
  rec.derated(ServerId{8}, 0.5);
  rec.server_recovered(ServerId{1});
  FleetSnapshot snap;
  snap.failed_servers = 1;
  const IntervalReport report = rec.finish(snap);
  EXPECT_EQ(report.crashes, 1U);
  EXPECT_EQ(report.recoveries, 1U);
  EXPECT_EQ(report.failovers, 1U);
  EXPECT_EQ(report.dropped_messages, 1U);
  EXPECT_EQ(report.retried_messages, 1U);
  EXPECT_EQ(report.orphans_replaced, 1U);
  EXPECT_EQ(report.failed_migrations, 1U);
  EXPECT_EQ(report.failed_servers, 1U);
  ASSERT_EQ(seen.size(), 8U);
  EXPECT_EQ(seen[0].kind, ProtocolEvent::Kind::kServerCrash);
  EXPECT_EQ(seen[2].kind, ProtocolEvent::Kind::kMessageDropped);
  EXPECT_EQ(seen[2].message, MessageKind::kTransferRequest);
  EXPECT_EQ(seen[6].kind, ProtocolEvent::Kind::kCapacityDerate);
  EXPECT_DOUBLE_EQ(seen[6].value, 0.5);
  EXPECT_EQ(seen[6].interval, 2U);
}

TEST(Recorder, RunTotalsSumClosedReportsAndKeepSamples) {
  IntervalRecorder rec;
  rec.begin_interval(0);
  rec.server_crashed(ServerId{1});
  rec.failover(ServerId{0}, Seconds{15.0});
  rec.crash_repaired(Seconds{30.0});
  FleetSnapshot snap;
  snap.failed_servers = 1;
  (void)rec.finish(snap);
  rec.begin_interval(1);
  rec.server_crashed(ServerId{2});
  rec.failover(ServerId{3});  // an election with no outage to close
  rec.shadow_adopted(ServerId{5});
  rec.shadow_adopted(ServerId{6});
  rec.reconciled(Seconds{20.0}, ServerId{3});
  const IntervalReport second = rec.finish(snap);
  EXPECT_EQ(second.orphans_adopted, 2U);
  rec.message_dropped(MessageKind::kWakeCommand, ServerId{4});  // still open

  const IntervalReport& t = rec.totals();
  EXPECT_EQ(t.crashes, 2U);
  EXPECT_EQ(t.failovers, 2U);
  EXPECT_EQ(t.heals, 1U);
  EXPECT_EQ(t.orphans_adopted, 2U);
  EXPECT_EQ(t.dropped_messages, 0U);  // only closed windows count
  EXPECT_EQ(t.failed_servers, 0U);    // a snapshot, never summed
  const ResilienceSamples& s = rec.samples();
  EXPECT_EQ(s.failover_outage.count(), 1U);
  EXPECT_DOUBLE_EQ(s.failover_outage.mean(), 15.0);
  EXPECT_DOUBLE_EQ(s.repair_time.mean(), 30.0);
  EXPECT_DOUBLE_EQ(s.heal_convergence.mean(), 20.0);
}

TEST(Recorder, FinishFoldsFleetSnapshot) {
  IntervalRecorder rec;
  rec.begin_interval(7);
  rec.sleep_begun(ServerId{0});
  rec.wake_begun(ServerId{1});
  FleetSnapshot snap;
  snap.sleeping_servers = 5;
  snap.parked_servers = 2;
  snap.deep_sleeping_servers = 3;
  snap.regimes[2] = 40;
  snap.interval_energy = Joules{123.0};
  const IntervalReport report = rec.finish(snap);
  EXPECT_EQ(report.interval_index, 7U);
  EXPECT_EQ(report.sleeps, 1U);
  EXPECT_EQ(report.wakes, 1U);
  EXPECT_EQ(report.sleeping_servers, 5U);
  EXPECT_EQ(report.parked_servers, 2U);
  EXPECT_EQ(report.deep_sleeping_servers, 3U);
  EXPECT_EQ(report.regimes[2], 40U);
  EXPECT_DOUBLE_EQ(report.interval_energy.value, 123.0);
}

TEST(Recorder, SinkSeesTypedEventsWithIntervalStamp) {
  IntervalRecorder rec;
  std::vector<ProtocolEvent> events;
  rec.set_sink([&events](const ProtocolEvent& e) { events.push_back(e); });
  rec.begin_interval(11);
  rec.migration(MigrationCause::kRebalance, ServerId{6});
  rec.qos_violation(ServerId{9});
  // A migration emits the migration event plus its in-cluster decision.
  ASSERT_EQ(events.size(), 3U);
  EXPECT_EQ(events[0].kind, ProtocolEvent::Kind::kMigration);
  EXPECT_EQ(events[0].cause, MigrationCause::kRebalance);
  EXPECT_EQ(events[0].server, ServerId{6});
  EXPECT_EQ(events[0].interval, 11U);
  EXPECT_EQ(events[1].kind, ProtocolEvent::Kind::kDecision);
  EXPECT_EQ(events[1].decision, DecisionKind::kInCluster);
  EXPECT_EQ(events[2].kind, ProtocolEvent::Kind::kQosViolation);
  EXPECT_EQ(events[2].server, ServerId{9});
  // Removing the sink stops delivery but not aggregation.
  rec.set_sink(nullptr);
  rec.local_decision(ServerId{0});
  EXPECT_EQ(events.size(), 3U);
  EXPECT_EQ(rec.current().local_decisions, 1U);
}

TEST(Recorder, EnumNames) {
  EXPECT_EQ(to_string(DecisionKind::kLocal), "local");
  EXPECT_EQ(to_string(DecisionKind::kInCluster), "in-cluster");
  EXPECT_EQ(to_string(MigrationCause::kShed), "shed");
  EXPECT_EQ(to_string(MigrationCause::kRebalance), "rebalance");
  EXPECT_EQ(to_string(MigrationCause::kConsolidation), "consolidation");
}

}  // namespace
}  // namespace eclb::cluster
