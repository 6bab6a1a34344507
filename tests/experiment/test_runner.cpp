#include "experiment/runner.h"

#include <gtest/gtest.h>

#include <sstream>

#include "experiment/scenario.h"

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
  obs::MetricsRegistry registry;
  obs::ObsConfig oc;
  oc.metrics = &registry;
  const auto agg = run_experiment(tiny(AverageLoad::kHigh70), 5, 3, nullptr, oc);

  const auto* intervals = registry.find_counter("run.intervals");
  ASSERT_NE(intervals, nullptr);
  EXPECT_EQ(intervals->value(), 5U * 3U);

  std::size_t local = 0;
  std::size_t in_cluster = 0;
  std::size_t migrations = 0;
  std::size_t violations = 0;
  for (const auto& rep : agg.replications) {
    local += rep.total_local;
    in_cluster += rep.total_in_cluster;
    migrations += rep.total_migrations;
    violations += rep.total_violations;
  }
  EXPECT_EQ(registry.find_counter("protocol.decisions.local")->value(), local);
  EXPECT_EQ(registry.find_counter("protocol.decisions.in_cluster")->value(),
            in_cluster);
  EXPECT_EQ(registry.find_counter("protocol.migrations")->value(), migrations);
  EXPECT_EQ(registry.find_counter("protocol.sla_violations")->value(),
            violations);

  const auto* ratio = registry.find_histogram("interval.decision_ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_EQ(ratio->count(), 5U * 3U);
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
