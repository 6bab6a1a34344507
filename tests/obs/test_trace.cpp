#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "experiment/runner.h"
#include "experiment/scenario.h"
#include "obs/observer.h"

namespace eclb::obs {
namespace {

std::string temp_trace_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(Trace, WriterEmitsOneJsonObjectPerLine) {
  const std::string path = temp_trace_path("trace_basic.jsonl");
  {
    TraceWriter w(path);
    ASSERT_TRUE(w.ok());
    w.interval_begin(0, 0.0);
    cluster::ProtocolEvent e;
    e.kind = cluster::ProtocolEvent::Kind::kDecision;
    e.interval = 0;
    e.server = common::ServerId{3};
    e.decision = cluster::DecisionKind::kLocal;
    w.event(e);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"type\":\"interval_begin\",\"interval\":0,\"t\":0}");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "{\"type\":\"event\",\"interval\":0,\"kind\":\"decision\","
            "\"server\":3,\"decision\":\"local\"}");
  EXPECT_FALSE(std::getline(in, line));
}

TEST(Trace, EventRoundTripsThroughParser) {
  cluster::ProtocolEvent e;
  e.kind = cluster::ProtocolEvent::Kind::kMigration;
  e.interval = 7;
  e.server = common::ServerId{12};
  e.cause = cluster::MigrationCause::kRebalance;

  const std::string path = temp_trace_path("trace_roundtrip.jsonl");
  {
    TraceWriter w(path);
    w.event(e);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto rec = parse_trace_line(line);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->type, TraceRecord::Type::kEvent);
  EXPECT_EQ(rec->event.kind, e.kind);
  EXPECT_EQ(rec->event.interval, 7U);
  EXPECT_EQ(rec->event.server, e.server);
  EXPECT_EQ(rec->event.cause, e.cause);
}

TEST(Trace, SlaViolationCarriesUnserved) {
  cluster::ProtocolEvent e;
  e.kind = cluster::ProtocolEvent::Kind::kSlaViolation;
  e.interval = 2;
  e.unserved = 0.125;
  const std::string path = temp_trace_path("trace_sla.jsonl");
  {
    TraceWriter w(path);
    w.event(e);
  }
  const auto records = read_trace_file(path);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), 1U);
  EXPECT_DOUBLE_EQ((*records)[0].event.unserved, 0.125);
  // An event without a server omits the field entirely.
  EXPECT_FALSE((*records)[0].event.server.valid());
}

TEST(Trace, ParserRejectsMalformedLines) {
  EXPECT_FALSE(parse_trace_line("").has_value());
  EXPECT_FALSE(parse_trace_line("not json").has_value());
  EXPECT_FALSE(parse_trace_line("{\"type\":\"event\"}").has_value());
  EXPECT_FALSE(
      parse_trace_line("{\"type\":\"mystery\",\"interval\":0}").has_value());
  EXPECT_FALSE(
      parse_trace_line("{\"type\":\"event\",\"interval\":0,\"kind\":\"nope\"}")
          .has_value());
}

TEST(Trace, ReadTraceFileFailsOnMissingFile) {
  EXPECT_FALSE(read_trace_file("/nonexistent/nowhere.jsonl").has_value());
}

TEST(Trace, FilePathEncodesSeedAndReplication) {
  EXPECT_EQ(trace_file_path("/tmp/t", 42, 3), "/tmp/t/rep3_seed42.jsonl");
  EXPECT_EQ(trace_file_path("/tmp/t/", 42, 3), "/tmp/t/rep3_seed42.jsonl");
}

// The acceptance check for the whole layer: the per-interval event stream in
// the trace must reconstruct the IntervalReport counters exactly.
TEST(Trace, EventStreamReconstructsIntervalReports) {
  auto cfg = experiment::paper_cluster_config(
      80, experiment::AverageLoad::kHigh70, 11);
  const std::string dir = ::testing::TempDir() + "eclb_trace_reconstruct";
  ObsConfig oc;
  oc.trace_dir = dir;
  const auto outcome = experiment::run_replication(cfg, 12, nullptr, oc,
                                                   /*replication=*/0);

  const auto records = read_trace_file(trace_file_path(dir, cfg.seed, 0));
  ASSERT_TRUE(records.has_value());

  // Walk the stream: count events per interval, compare at interval_end.
  std::size_t intervals_checked = 0;
  cluster::IntervalReport counted;
  bool open = false;
  for (const auto& rec : *records) {
    switch (rec.type) {
      case TraceRecord::Type::kIntervalBegin:
        ASSERT_FALSE(open);
        open = true;
        counted = {};
        counted.interval_index = rec.interval;
        break;
      case TraceRecord::Type::kEvent: {
        ASSERT_TRUE(open);
        using Kind = cluster::ProtocolEvent::Kind;
        switch (rec.event.kind) {
          case Kind::kDecision:
            if (rec.event.decision == cluster::DecisionKind::kLocal) {
              ++counted.local_decisions;
            } else {
              ++counted.in_cluster_decisions;
            }
            break;
          case Kind::kMigration: ++counted.migrations; break;
          case Kind::kHorizontalStart: ++counted.horizontal_starts; break;
          case Kind::kOffload: ++counted.offloaded_requests; break;
          case Kind::kDrain: ++counted.drains; break;
          case Kind::kSleep: ++counted.sleeps; break;
          case Kind::kWake: ++counted.wakes; break;
          case Kind::kSlaViolation:
            ++counted.sla_violations;
            counted.unserved_demand += rec.event.unserved;
            break;
          case Kind::kQosViolation: ++counted.qos_violations; break;
          case Kind::kServerCrash: ++counted.crashes; break;
          case Kind::kServerRecover: ++counted.recoveries; break;
          case Kind::kLeaderFailover: ++counted.failovers; break;
          case Kind::kMessageDropped: ++counted.dropped_messages; break;
          case Kind::kMessageRetried: ++counted.retried_messages; break;
          case Kind::kOrphanReplaced: ++counted.orphans_replaced; break;
          case Kind::kMigrationFailed: ++counted.failed_migrations; break;
          case Kind::kCapacityDerate: break;  // config change, no counter
          case Kind::kPartitionStart: ++counted.partitions; break;
          case Kind::kPartitionHeal: ++counted.heals; break;
          case Kind::kCommandFenced: ++counted.fenced_commands; break;
          case Kind::kShadowStart: ++counted.shadow_starts; break;
          case Kind::kDuplicateResolved: ++counted.duplicates_resolved; break;
          case Kind::kReconcile: break;  // heals counts the episode
          case Kind::kRequestBatch:
            counted.requests_arrived += rec.event.requests_arrived;
            counted.requests_completed += rec.event.requests_completed;
            counted.request_sla_violations += rec.event.requests_violated;
            counted.requests_dropped += rec.event.requests_dropped;
            counted.requests_shed += rec.event.requests_shed;
            counted.requests_failed_by_fault += rec.event.requests_failed;
            break;
          case Kind::kWakeSleepFlap: ++counted.wake_sleep_flaps; break;
        }
        break;
      }
      case TraceRecord::Type::kIntervalEnd: {
        ASSERT_TRUE(open);
        open = false;
        ASSERT_LT(intervals_checked, outcome.reports.size());
        const auto& expect = outcome.reports[intervals_checked];
        EXPECT_EQ(rec.interval, expect.interval_index);
        // The summary line mirrors the report...
        EXPECT_EQ(rec.local, expect.local_decisions);
        EXPECT_EQ(rec.in_cluster, expect.in_cluster_decisions);
        EXPECT_EQ(rec.migrations, expect.migrations);
        EXPECT_EQ(rec.sleeps, expect.sleeps);
        EXPECT_EQ(rec.wakes, expect.wakes);
        EXPECT_EQ(rec.sla_violations, expect.sla_violations);
        EXPECT_EQ(rec.parked, expect.parked_servers);
        EXPECT_EQ(rec.deep_sleeping, expect.deep_sleeping_servers);
        EXPECT_DOUBLE_EQ(rec.energy_joules, expect.interval_energy.value);
        // ...and so does the raw event stream, independently.
        EXPECT_EQ(counted.local_decisions, expect.local_decisions);
        EXPECT_EQ(counted.in_cluster_decisions, expect.in_cluster_decisions);
        EXPECT_EQ(counted.migrations, expect.migrations);
        EXPECT_EQ(counted.horizontal_starts, expect.horizontal_starts);
        EXPECT_EQ(counted.offloaded_requests, expect.offloaded_requests);
        EXPECT_EQ(counted.drains, expect.drains);
        EXPECT_EQ(counted.sleeps, expect.sleeps);
        EXPECT_EQ(counted.wakes, expect.wakes);
        EXPECT_EQ(counted.sla_violations, expect.sla_violations);
        EXPECT_EQ(counted.qos_violations, expect.qos_violations);
        EXPECT_NEAR(counted.unserved_demand, expect.unserved_demand, 1e-9);
        ++intervals_checked;
        break;
      }
    }
  }
  EXPECT_FALSE(open);
  EXPECT_EQ(intervals_checked, outcome.reports.size());
  EXPECT_EQ(intervals_checked, 12U);
}

}  // namespace
}  // namespace eclb::obs
