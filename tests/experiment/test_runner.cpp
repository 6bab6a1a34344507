#include "experiment/runner.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "experiment/scenario.h"
#include "fault/fault_plan.h"
#include "obs/counters.h"

namespace eclb::experiment {
namespace {

cluster::ClusterConfig tiny(AverageLoad load) {
  auto cfg = paper_cluster_config(60, load, 5);
  return cfg;
}

TEST(Runner, ReplicationCollectsSeries) {
  const auto outcome = run_replication(tiny(AverageLoad::kLow30), 10);
  EXPECT_EQ(outcome.reports.size(), 10U);
  EXPECT_EQ(outcome.ratio_series.size(), 10U);
  EXPECT_EQ(outcome.seed, 5U);
  EXPECT_GT(outcome.total_energy.value, 0.0);
}

TEST(Runner, ReplicationHistogramsCoverCluster) {
  const auto outcome = run_replication(tiny(AverageLoad::kLow30), 10);
  std::size_t initial_total = 0;
  for (auto h : outcome.initial_histogram) initial_total += h;
  EXPECT_EQ(initial_total, 60U);
  std::size_t final_total = 0;
  for (auto h : outcome.final_histogram) final_total += h;
  EXPECT_EQ(final_total + outcome.final_parked + outcome.final_deep_sleeping,
            60U);
}

TEST(Runner, ReplicationStatsMatchSeries) {
  const auto outcome = run_replication(tiny(AverageLoad::kHigh70), 10);
  common::RunningStats check;
  for (double r : outcome.ratio_series.y) check.add(r);
  EXPECT_NEAR(outcome.average_ratio, check.mean(), 1e-12);
  EXPECT_NEAR(outcome.ratio_stddev, check.stddev(), 1e-12);
}

TEST(Runner, ExperimentAggregatesReplications) {
  const auto agg = run_experiment(tiny(AverageLoad::kLow30), 8, 3);
  EXPECT_EQ(agg.replications.size(), 3U);
  EXPECT_EQ(agg.mean_ratio_series.size(), 8U);
  EXPECT_EQ(agg.average_ratio.count(), 3U);
  // Seeds come from the splitmix64 derivation, one distinct stream each.
  EXPECT_EQ(agg.replications[0].seed, replication_seed(5, 0));
  EXPECT_EQ(agg.replications[1].seed, replication_seed(5, 1));
  EXPECT_EQ(agg.replications[2].seed, replication_seed(5, 2));
  EXPECT_NE(agg.replications[0].seed, agg.replications[1].seed);
  EXPECT_NE(agg.replications[1].seed, agg.replications[2].seed);
}

TEST(Runner, ReplicationSeedsDoNotOverlapAcrossBaseSeeds) {
  // The old base + r derivation made (seed, r+1) collide with (seed+1, r);
  // the mixed derivation must keep neighbouring experiments disjoint.
  for (std::uint64_t base = 1; base < 50; ++base) {
    for (std::size_t r = 0; r < 8; ++r) {
      EXPECT_NE(replication_seed(base, r + 1), replication_seed(base + 1, r))
          << "base=" << base << " r=" << r;
      EXPECT_NE(replication_seed(base, r), replication_seed(base + 1, r));
    }
  }
}

TEST(Runner, MeanSeriesIsMeanOfReplications) {
  const auto agg = run_experiment(tiny(AverageLoad::kLow30), 5, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    const double expected = 0.5 * (agg.replications[0].ratio_series.y[i] +
                                   agg.replications[1].ratio_series.y[i]);
    EXPECT_NEAR(agg.mean_ratio_series.y[i], expected, 1e-12);
  }
}

TEST(Runner, MeanHistogramsAreAverages) {
  const auto agg = run_experiment(tiny(AverageLoad::kHigh70), 3, 2);
  for (std::size_t b = 0; b < energy::kRegimeCount; ++b) {
    const double expected =
        0.5 * (static_cast<double>(agg.replications[0].initial_histogram[b]) +
               static_cast<double>(agg.replications[1].initial_histogram[b]));
    EXPECT_NEAR(agg.mean_initial_histogram[b], expected, 1e-12);
  }
}

TEST(Runner, ParallelMatchesSerial) {
  common::ThreadPool pool(2);
  const auto serial = run_experiment(tiny(AverageLoad::kLow30), 6, 3, nullptr);
  const auto parallel =
      run_experiment(tiny(AverageLoad::kLow30), 6, 3, nullptr, {}, &pool);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(serial.mean_ratio_series.y[i],
                     parallel.mean_ratio_series.y[i]);
  }
  EXPECT_DOUBLE_EQ(serial.average_ratio.mean(), parallel.average_ratio.mean());
}

TEST(Runner, DeterministicAcrossCalls) {
  const auto a = run_experiment(tiny(AverageLoad::kHigh70), 6, 2);
  const auto b = run_experiment(tiny(AverageLoad::kHigh70), 6, 2);
  EXPECT_DOUBLE_EQ(a.average_ratio.mean(), b.average_ratio.mean());
  EXPECT_DOUBLE_EQ(a.energy_kwh.mean(), b.energy_kwh.mean());
}

TEST(Runner, ObservationDoesNotChangeOutcome) {
  const auto plain = run_experiment(tiny(AverageLoad::kLow30), 6, 2);

  obs::MetricsRegistry registry;
  obs::Profiler profiler;
  obs::ObsConfig oc;
  oc.metrics = &registry;
  oc.profiler = &profiler;
  const auto observed = run_experiment(tiny(AverageLoad::kLow30), 6, 2,
                                       nullptr, oc);

  // Bit-identical simulation whether or not anyone is watching.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(plain.mean_ratio_series.y[i],
                     observed.mean_ratio_series.y[i]);
  }
  EXPECT_DOUBLE_EQ(plain.energy_kwh.mean(), observed.energy_kwh.mean());
  EXPECT_DOUBLE_EQ(plain.violations.mean(), observed.violations.mean());
}

TEST(Runner, RegistryAggregatesAcrossReplications) {
  std::string error;
  const auto plan = fault::FaultPlan::parse(
      "crash@120:s=3;loss@0:p=0.05;migfail@0:p=0.1;"
      "part@120:g=0-19|20-59,heal=300;seed=4",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  obs::MetricsRegistry registry;
  obs::ObsConfig oc;
  oc.metrics = &registry;
  const auto agg =
      run_experiment(tiny(AverageLoad::kHigh70), 8, 3, &*plan, oc);

  // Every counter is the sum of its kReportCounters row over all reports.
  for (const obs::ReportCounter& row : obs::kReportCounters) {
    if (row.metric.empty()) continue;
    std::uint64_t sum = 0;
    for (const auto& rep : agg.replications) {
      for (const auto& r : rep.reports) sum += r.*row.field;
    }
    const auto* c = registry.find_counter(row.metric);
    ASSERT_NE(c, nullptr) << row.metric;
    EXPECT_EQ(c->value(), sum) << row.metric;
  }
  // The plan reached the partition rows.
  EXPECT_GT(registry.find_counter("fault.partitions")->value(), 0U);
  EXPECT_GT(registry.find_counter("fault.heals")->value(), 0U);
  EXPECT_GT(registry.find_counter("fault.crashes")->value(), 0U);

  const auto* intervals = registry.find_counter("run.intervals");
  ASSERT_NE(intervals, nullptr);
  EXPECT_EQ(intervals->value(), 8U * 3U);
  const auto* ratio = registry.find_histogram("interval.decision_ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_EQ(ratio->count(), 8U * 3U);

  // The full list of names, zeros included: none may be lost or renamed.
  std::ostringstream json;
  registry.write_json(json);
  std::vector<std::string> names;
  std::istringstream lines(json.str());
  for (std::string line; std::getline(lines, line);) {
    const auto open = line.find("    \"");
    const auto close = line.find("\":");
    if (open != 0 || close == std::string::npos) continue;
    names.push_back(line.substr(5, close - 5));
  }
  const std::vector<std::string> expected = {
      "fault.crashes", "fault.dropped_messages", "fault.duplicates_resolved",
      "fault.failed_migrations", "fault.failovers", "fault.fenced_commands",
      "fault.heals", "fault.orphans_adopted", "fault.orphans_replaced",
      "fault.partitions",
      "fault.recoveries", "fault.retried_messages", "fault.shadow_starts",
      "protocol.decisions.in_cluster", "protocol.decisions.local",
      "protocol.drains", "protocol.horizontal_starts", "protocol.migrations",
      "protocol.migrations.consolidation", "protocol.migrations.rebalance",
      "protocol.migrations.shed", "protocol.offloads",
      "protocol.qos_violations", "protocol.sla_violations", "protocol.sleeps",
      "protocol.wake_sleep_flaps", "protocol.wakes", "requests.arrived",
      "requests.completed", "requests.dropped", "requests.failed_by_fault",
      "requests.shed", "requests.sla_violations", "run.intervals",
      // gauges
      "protocol.unserved_demand", "requests.backlog_seconds",
      "run.energy_kwh",
      // histograms
      "interval.decision_ratio"};
  EXPECT_EQ(names, expected);
}

TEST(Runner, RegistryAggregationMatchesUnderParallelReplications) {
  common::ThreadPool pool(3);
  obs::MetricsRegistry serial_reg;
  obs::ObsConfig serial_oc;
  serial_oc.metrics = &serial_reg;
  (void)run_experiment(tiny(AverageLoad::kLow30), 40, 3, nullptr, serial_oc);
  std::ostringstream serial_json;
  serial_reg.write_json(serial_json);

  // Replications write their own registries and merge in replication
  // order, so every instrument -- float sums included -- matches byte for
  // byte however the pool interleaves them.  Several pooled runs make an
  // interleaving-dependent sum show up reliably.
  for (int attempt = 0; attempt < 3; ++attempt) {
    obs::MetricsRegistry parallel_reg;
    obs::ObsConfig parallel_oc;
    parallel_oc.metrics = &parallel_reg;
    (void)run_experiment(tiny(AverageLoad::kLow30), 40, 3, nullptr,
                         parallel_oc, &pool);
    for (const char* name :
         {"run.intervals", "protocol.decisions.local",
          "protocol.decisions.in_cluster", "protocol.migrations",
          "protocol.sleeps", "protocol.wakes", "protocol.sla_violations"}) {
      const auto* s = serial_reg.find_counter(name);
      const auto* p = parallel_reg.find_counter(name);
      ASSERT_NE(s, nullptr) << name;
      ASSERT_NE(p, nullptr) << name;
      EXPECT_EQ(s->value(), p->value()) << name;
    }
    std::ostringstream parallel_json;
    parallel_reg.write_json(parallel_json);
    EXPECT_EQ(serial_json.str(), parallel_json.str()) << "attempt " << attempt;
  }
}

}  // namespace
}  // namespace eclb::experiment
