#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "cluster/fabric.h"
#include "experiment/request_driver.h"
#include "experiment/runner.h"
#include "experiment/scenario.h"
#include "fault/injector.h"
#include "obs/counters.h"
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
  // A count must be a finite, non-negative whole number that fits a size_t
  // (casting 1e300 used to be undefined behaviour).
  EXPECT_FALSE(parse_trace_line(
                   "{\"type\":\"interval_begin\",\"interval\":1e300,\"t\":0}")
                   .has_value());
  EXPECT_FALSE(parse_trace_line(
                   "{\"type\":\"interval_begin\",\"interval\":nan,\"t\":0}")
                   .has_value());
  EXPECT_FALSE(parse_trace_line(
                   "{\"type\":\"interval_begin\",\"interval\":2.7,\"t\":0}")
                   .has_value());
  EXPECT_TRUE(parse_trace_line(
                  "{\"type\":\"interval_begin\",\"interval\":2,\"t\":0}")
                  .has_value());
  // An omit-when-zero counter may be absent, but not malformed.
  const std::string end =
      "{\"type\":\"interval_end\",\"interval\":0,\"t\":0,\"local\":1,"
      "\"in_cluster\":0,\"migrations\":0,\"horizontal_starts\":0,"
      "\"offloads\":0,\"drains\":0,\"sleeps\":0,\"wakes\":0,"
      "\"sla_violations\":0,\"qos_violations\":0,";
  const std::string tail =
      "\"unserved\":0,\"parked\":0,\"deep_sleeping\":0,\"energy_j\":1}";
  const auto parsed = parse_trace_line(end + "\"crashes\":2," + tail);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->report.local_decisions, 1U);
  EXPECT_EQ(parsed->report.crashes, 2U);
  EXPECT_TRUE(parse_trace_line(end + tail).has_value());
  EXPECT_FALSE(parse_trace_line(end + "\"crashes\":2.5," + tail).has_value());
  // Request-batch counts are 32-bit and are not truncated.
  const std::string batch =
      "{\"type\":\"event\",\"interval\":0,\"kind\":\"request_batch\","
      "\"completed\":1,\"violated\":0,\"dropped\":0,\"backlog\":0,"
      "\"arrived\":";
  EXPECT_TRUE(parse_trace_line(batch + "4294967295}").has_value());
  EXPECT_FALSE(parse_trace_line(batch + "4294967296}").has_value());
}

TEST(Trace, ReadTraceFileFailsOnMissingFile) {
  EXPECT_FALSE(read_trace_file("/nonexistent/nowhere.jsonl").has_value());
}

TEST(Trace, FilePathEncodesSeedAndReplication) {
  EXPECT_EQ(trace_file_path("/tmp/t", 42, 3), "/tmp/t/rep3_seed42.jsonl");
  EXPECT_EQ(trace_file_path("/tmp/t/", 42, 3), "/tmp/t/rep3_seed42.jsonl");
}

/// Re-counts `event` into `counted`: the test-side oracle that a trace's
/// raw event stream adds up to its interval_end summary.
void count_event(const cluster::ProtocolEvent& event,
                 cluster::IntervalReport& counted) {
  using Kind = cluster::ProtocolEvent::Kind;
  using Cause = cluster::MigrationCause;
  switch (event.kind) {
    case Kind::kDecision:
      ++(event.decision == cluster::DecisionKind::kLocal
             ? counted.local_decisions
             : counted.in_cluster_decisions);
      break;
    case Kind::kMigration:
      ++counted.migrations;
      ++(event.cause == Cause::kShed        ? counted.shed_migrations
         : event.cause == Cause::kRebalance ? counted.rebalance_migrations
                                            : counted.consolidation_migrations);
      break;
    case Kind::kHorizontalStart: ++counted.horizontal_starts; break;
    case Kind::kOffload: ++counted.offloaded_requests; break;
    case Kind::kDrain: ++counted.drains; break;
    case Kind::kSleep: ++counted.sleeps; break;
    case Kind::kWake: ++counted.wakes; break;
    case Kind::kSlaViolation:
      ++counted.sla_violations;
      counted.unserved_demand += event.unserved;
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
    case Kind::kPartitionHeal: break;  // heals counts the reconciliation
    case Kind::kCommandFenced: ++counted.fenced_commands; break;
    case Kind::kShadowStart: ++counted.shadow_starts; break;
    case Kind::kDuplicateResolved: ++counted.duplicates_resolved; break;
    case Kind::kReconcile: ++counted.heals; break;
    case Kind::kRequestBatch:
      counted.requests_arrived += event.requests_arrived;
      counted.requests_completed += event.requests_completed;
      counted.request_sla_violations += event.requests_violated;
      counted.requests_dropped += event.requests_dropped;
      counted.requests_shed += event.requests_shed;
      counted.requests_failed_by_fault += event.requests_failed;
      counted.request_backlog = event.value;
      break;
    case Kind::kWakeSleepFlap: ++counted.wake_sleep_flaps; break;
    case Kind::kShadowAdopted: ++counted.orphans_adopted; break;
  }
}

/// Checks a parsed trace against the reports of the run that wrote it.
/// Every interval_end must carry each kReportCounters row that has a trace
/// key and the trailing fields of its report, and the events stamped with
/// that interval must recount every row except failed_servers, a fleet
/// snapshot.  Fault events firing between rounds sit outside the
/// begin/end lines, so events are grouped by their interval stamp.
/// Returns the trace keys that were nonzero in some interval.
std::set<std::string_view> expect_trace_matches(
    const std::vector<TraceRecord>& records,
    const std::vector<cluster::IntervalReport>& reports) {
  std::set<std::string_view> written;
  std::map<std::size_t, cluster::IntervalReport> counted;
  std::size_t checked = 0;
  std::optional<std::size_t> open;
  for (const auto& rec : records) {
    switch (rec.type) {
      case TraceRecord::Type::kIntervalBegin:
        EXPECT_FALSE(open.has_value());
        open = rec.interval;
        break;
      case TraceRecord::Type::kEvent:
        EXPECT_EQ(rec.event.interval, rec.interval);
        count_event(rec.event, counted[rec.interval]);
        break;
      case TraceRecord::Type::kIntervalEnd: {
        EXPECT_EQ(open, rec.interval);
        open.reset();
        if (checked >= reports.size()) {
          ADD_FAILURE() << "more interval_end lines than reports";
          return written;
        }
        const cluster::IntervalReport& expect = reports[checked++];
        const cluster::IntervalReport& got = rec.report;
        const cluster::IntervalReport& events = counted[rec.interval];
        EXPECT_EQ(rec.interval, expect.interval_index);
        EXPECT_EQ(got.interval_index, expect.interval_index);
        for (const ReportCounter& row : kReportCounters) {
          const std::string_view name =
              row.trace_key.empty() ? row.metric : row.trace_key;
          // Metric-only rows are not in the trace and parse as zero.
          EXPECT_EQ(got.*row.field,
                    row.trace_key.empty() ? 0 : expect.*row.field)
              << name << " interval " << rec.interval;
          if (row.field != &cluster::IntervalReport::failed_servers) {
            EXPECT_EQ(events.*row.field, expect.*row.field)
                << name << " interval " << rec.interval;
          }
          if (!row.trace_key.empty() && got.*row.field != 0) {
            written.insert(row.trace_key);
          }
        }
        // %.17g round-trips a double exactly.
        EXPECT_EQ(got.request_backlog, expect.request_backlog);
        EXPECT_EQ(got.unserved_demand, expect.unserved_demand);
        EXPECT_EQ(got.parked_servers, expect.parked_servers);
        EXPECT_EQ(got.deep_sleeping_servers, expect.deep_sleeping_servers);
        EXPECT_EQ(got.interval_energy.value, expect.interval_energy.value);
        EXPECT_EQ(events.request_backlog, expect.request_backlog);
        EXPECT_NEAR(events.unserved_demand, expect.unserved_demand, 1e-9);
        break;
      }
    }
  }
  EXPECT_FALSE(open.has_value());
  EXPECT_EQ(checked, reports.size());
  return written;
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
  ASSERT_EQ(outcome.reports.size(), 12U);
  expect_trace_matches(*records, outcome.reports);
}

// The same round trip on a run that reaches the omit-when-zero rows: a
// faulted, partitioned 1-shard fabric serving requests under admission
// control.  A minority host crashing mid-split makes the reconciliation
// adopt shadows.  Its registry must hold each request row's sum over the
// reports.
TEST(Trace, FaultAndRequestRowsRoundTrip) {
  std::string error;
  const auto plan = fault::FaultPlan::parse(
      "leader@600;loss@0:p=0.6;crash@300:s=3;crash@300:s=4;recover@900:s=3;"
      "crash@300:s=50;"
      "migfail@0:p=0.2;part@130:g=0-44|45-59,heal=450;part@900:g=0-19|20-59,"
      "heal=1200;retries=5;backoff=15;cap=60;seed=5",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  const auto workload = workload::engine::RequestWorkloadConfig::parse(
      "flash:rate=150,burst=8,on=120,off=480,mean=0.2;seed=3;"
      "admit=tail-drop;cap=20",
      &error);
  ASSERT_TRUE(workload.has_value()) << error;

  cluster::FabricConfig fcfg;
  fcfg.cluster_template =
      experiment::paper_cluster_config(60, experiment::AverageLoad::kLow30, 9);
  fcfg.cluster_template.demand_evolution_enabled = false;
  // Off-phases sleep servers and bursts recall them: wake/sleep flaps.
  fcfg.cluster_template.max_sleep_fraction_per_interval = 0.1;
  cluster::Fabric fabric(fcfg);
  const fault::FabricFaultSession faults(fabric, *plan);
  experiment::FabricRequestSession session(fabric, *workload);
  ASSERT_TRUE(session.ok()) << session.error();

  const std::string dir = ::testing::TempDir() + "eclb_trace_faults";
  MetricsRegistry registry;
  ObsConfig oc;
  oc.trace_dir = dir;
  oc.metrics = &registry;
  std::vector<cluster::IntervalReport> reports;
  {
    const auto probe = ClusterProbe::make(oc, fcfg.cluster_template.seed, 0);
    ASSERT_NE(probe, nullptr);
    fabric.mutable_cluster(0).attach_observer(probe.get());
    for (int i = 0; i < 30; ++i) {
      session.advance_interval();
      reports.push_back(fabric.step().clusters[0]);
    }
    fabric.mutable_cluster(0).detach_observers();
  }  // The probe's destructor flushes the trace.

  const auto records = read_trace_file(
      trace_file_path(dir, fcfg.cluster_template.seed, 0));
  ASSERT_TRUE(records.has_value());
  const auto written = expect_trace_matches(*records, reports);
  for (const ReportCounter& row : kReportCounters) {
    if (row.omit_zero) {
      EXPECT_EQ(written.count(row.trace_key), 1U) << row.trace_key;
    }
  }

  for (const ReportCounter& row : kReportCounters) {
    if (!row.metric.starts_with("requests.")) continue;
    std::uint64_t sum = 0;
    for (const auto& r : reports) sum += r.*row.field;
    const Counter* c = registry.find_counter(row.metric);
    ASSERT_NE(c, nullptr) << row.metric;
    EXPECT_EQ(c->value(), sum) << row.metric;
  }
  const Gauge* backlog = registry.find_gauge(kBacklogMetric);
  ASSERT_NE(backlog, nullptr);
  EXPECT_EQ(backlog->value(), reports.back().request_backlog);
}

}  // namespace
}  // namespace eclb::obs
