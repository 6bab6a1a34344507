// Fault-free bit-identity regression: with the fault subsystem compiled in
// (and even installed, on an empty plan) the fig2/fig3/table2 surfaces must
// stay byte-identical to the pre-fault baseline.  The golden FNV-1a hashes
// below were captured from the seed tree before src/fault existed; any
// change to them means the fault layer perturbed a no-fault run.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "cluster/cluster.h"
#include "common/csv.h"
#include "experiment/runner.h"
#include "experiment/scenario.h"
#include "fault/injector.h"

namespace eclb {
namespace {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Per-interval CSV exactly as `eclb_cli cluster` prints it.  When `plan` is
/// non-null the run executes under an installed FaultInjector.
std::string cluster_csv(std::size_t servers, experiment::AverageLoad load,
                        std::uint64_t seed, std::size_t intervals,
                        const fault::FaultPlan* plan = nullptr) {
  const auto cfg = experiment::paper_cluster_config(servers, load, seed);
  cluster::Cluster c(cfg);
  std::optional<fault::FaultInjector> injector;
  if (plan != nullptr) injector.emplace(c, *plan);
  std::ostringstream out;
  common::CsvWriter csv(out,
                        {"interval", "local", "in_cluster", "ratio", "migrations",
                         "sleeps", "wakes", "parked", "deep_sleeping",
                         "sla_violations", "energy_kwh"});
  for (std::size_t i = 0; i < intervals; ++i) {
    const auto r = c.step();
    csv.row({common::CsvWriter::cell(static_cast<long long>(r.interval_index)),
             common::CsvWriter::cell(static_cast<long long>(r.local_decisions)),
             common::CsvWriter::cell(static_cast<long long>(r.in_cluster_decisions)),
             common::CsvWriter::cell(r.decision_ratio()),
             common::CsvWriter::cell(static_cast<long long>(r.migrations)),
             common::CsvWriter::cell(static_cast<long long>(r.sleeps)),
             common::CsvWriter::cell(static_cast<long long>(r.wakes)),
             common::CsvWriter::cell(static_cast<long long>(r.parked_servers)),
             common::CsvWriter::cell(static_cast<long long>(r.deep_sleeping_servers)),
             common::CsvWriter::cell(static_cast<long long>(r.sla_violations)),
             common::CsvWriter::cell(r.interval_energy.kwh())});
  }
  return out.str();
}

/// The fig2/fig3/table2 aggregate surface: mean ratio series, mean regime
/// histograms before/after, and the Table 2 summary statistics.
std::string experiment_csv(std::size_t servers, experiment::AverageLoad load,
                           std::uint64_t seed, std::size_t replications,
                           const fault::FaultPlan* plan = nullptr) {
  const auto cfg = experiment::paper_cluster_config(servers, load, seed);
  const auto agg = experiment::run_experiment(
      cfg, experiment::kPaperIntervals, replications, plan);
  std::ostringstream out;
  common::CsvWriter csv(out, {"series", "index", "value"});
  const auto emit = [&csv](const char* series, std::size_t i, double v) {
    csv.row({series, common::CsvWriter::cell(static_cast<long long>(i)),
             common::CsvWriter::cell(v)});
  };
  for (std::size_t i = 0; i < agg.mean_ratio_series.size(); ++i) {
    emit("mean_ratio", i, agg.mean_ratio_series.y[i]);
  }
  for (std::size_t b = 0; b < energy::kRegimeCount; ++b) {
    emit("initial_histogram", b, agg.mean_initial_histogram[b]);
    emit("final_histogram", b, agg.mean_final_histogram[b]);
  }
  emit("average_ratio", 0, agg.average_ratio.mean());
  emit("ratio_stddev", 0, agg.ratio_stddev.mean());
  emit("deep_sleepers", 0, agg.deep_sleepers.mean());
  emit("energy_kwh", 0, agg.energy_kwh.mean());
  emit("violations", 0, agg.violations.mean());
  return out.str();
}

struct Golden {
  std::uint64_t seed;
  experiment::AverageLoad load;
  std::uint64_t cluster_hash;
  std::uint64_t experiment_hash;
};

// Captured on the pre-fault baseline (n = 100 servers, 40 intervals,
// 3 replications for the aggregate surface).
constexpr Golden kGolden[] = {
    {42, experiment::AverageLoad::kLow30, 0x7526e541a8207d58ULL,
     0x36abc911dce2bd1eULL},
    {42, experiment::AverageLoad::kHigh70, 0xc89a6e0325e5cf3eULL,
     0xf8d67169d2c60d9bULL},
    {7, experiment::AverageLoad::kLow30, 0x47ae21abe7b40699ULL,
     0x33a1402659dfce72ULL},
    {7, experiment::AverageLoad::kHigh70, 0x88022796f101ff5dULL,
     0xd3fefc47613c7ef0ULL},
    {1001, experiment::AverageLoad::kLow30, 0xa616fbc70818a6d7ULL,
     0x4421594c64cd8aa2ULL},
    {1001, experiment::AverageLoad::kHigh70, 0x84d1b5901af5c28fULL,
     0x1b429b9bd423fc0aULL},
};

TEST(FaultFreeDeterminism, ClusterCsvMatchesPreFaultBaseline) {
  for (const auto& g : kGolden) {
    EXPECT_EQ(fnv1a(cluster_csv(100, g.load, g.seed, 40)), g.cluster_hash)
        << "seed " << g.seed << " load " << static_cast<int>(g.load);
  }
}

TEST(FaultFreeDeterminism, ExperimentCsvMatchesPreFaultBaseline) {
  for (const auto& g : kGolden) {
    EXPECT_EQ(fnv1a(experiment_csv(100, g.load, g.seed, 3)), g.experiment_hash)
        << "seed " << g.seed << " load " << static_cast<int>(g.load);
  }
}

TEST(FaultFreeDeterminism, EmptyPlanLeavesClusterCsvByteIdentical) {
  // Stronger than hash equality: the full CSV text must match with an
  // injector installed on an empty plan.
  const fault::FaultPlan empty;
  const auto& g = kGolden[0];
  const std::string plain = cluster_csv(100, g.load, g.seed, 40);
  const std::string faulted = cluster_csv(100, g.load, g.seed, 40, &empty);
  EXPECT_EQ(plain, faulted);
  EXPECT_EQ(fnv1a(faulted), g.cluster_hash);
}

TEST(FaultFreeDeterminism, EmptyPlanLeavesExperimentCsvByteIdentical) {
  const fault::FaultPlan empty;
  const auto& g = kGolden[1];
  const std::string plain = experiment_csv(100, g.load, g.seed, 3);
  const std::string faulted = experiment_csv(100, g.load, g.seed, 3, &empty);
  EXPECT_EQ(plain, faulted);
  EXPECT_EQ(fnv1a(faulted), g.experiment_hash);
}

TEST(FaultFreeDeterminism, ParamsOnlyPlanStaysByteIdentical) {
  // A plan that sets retry/partition-era parameters but schedules no events
  // is still empty: the membership layer, epoch counters and shadow-restart
  // machinery are compiled in and armed, yet a run must stay byte-identical
  // to the pre-fault baseline.
  auto plan = fault::FaultPlan::parse("retries=9; backoff=0.125; cap=2; miss=2");
  ASSERT_TRUE(plan.has_value());
  ASSERT_TRUE(plan->empty());
  const auto& g = kGolden[0];
  const std::string faulted = cluster_csv(100, g.load, g.seed, 40, &*plan);
  EXPECT_EQ(fnv1a(faulted), g.cluster_hash);
}

}  // namespace
}  // namespace eclb
