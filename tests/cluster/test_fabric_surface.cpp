// Covers the Fabric's multi-cluster surface: construction, aggregation,
// overflow routing through the barrier mailboxes.  The barrier machinery
// itself (mailbox ordering, router tie-breaks, thread-count determinism)
// lives in test_fabric.cpp.
#include "cluster/fabric.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace eclb::cluster {
namespace {

FabricConfig make_config(std::size_t shards, double lo, double hi) {
  FabricConfig cfg;
  cfg.shard_count = shards;
  cfg.cluster_template.server_count = 40;
  cfg.cluster_template.initial_load_min = lo;
  cfg.cluster_template.initial_load_max = hi;
  cfg.cluster_template.seed = 17;
  return cfg;
}

TEST(FabricSurface, BuildsRequestedClusters) {
  Fabric fabric(make_config(3, 0.2, 0.4));
  EXPECT_EQ(fabric.size(), 3U);
  EXPECT_EQ(fabric.total_servers(), 120U);
}

TEST(FabricSurface, ClustersGetDistinctSeeds) {
  Fabric fabric(make_config(2, 0.2, 0.4));
  EXPECT_NE(fabric.cluster(0).total_demand(), fabric.cluster(1).total_demand());
  // Shard seeds come from the splitmix64 mix, not the correlated `seed + i`
  // pattern.
  EXPECT_EQ(fabric.cluster(0).config().seed, common::mix_seed(17, 0));
  EXPECT_EQ(fabric.cluster(1).config().seed, common::mix_seed(17, 1));
  EXPECT_NE(fabric.cluster(1).config().seed,
            fabric.cluster(0).config().seed + 1);
}

TEST(FabricSurface, LoadFractionAggregates) {
  Fabric fabric(make_config(4, 0.2, 0.4));
  double demand = 0.0;
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    demand += fabric.cluster(i).total_demand();
  }
  EXPECT_NEAR(fabric.load_fraction(), demand / 160.0, 1e-12);
}

TEST(FabricSurface, StepReportsPerCluster) {
  Fabric fabric(make_config(3, 0.2, 0.4));
  const auto report = fabric.step();
  ASSERT_EQ(report.clusters.size(), 3U);
  EXPECT_GT(report.total_local() + report.total_in_cluster(), 0U);
}

TEST(FabricSurface, ReportAggregatesSum) {
  Fabric fabric(make_config(2, 0.6, 0.8));
  const auto report = fabric.step();
  std::size_t local = 0;
  std::size_t in_cluster = 0;
  for (const auto& c : report.clusters) {
    local += c.local_decisions;
    in_cluster += c.in_cluster_decisions;
  }
  EXPECT_EQ(report.total_local(), local);
  EXPECT_EQ(report.total_in_cluster(), in_cluster);
}

TEST(FabricSurface, EnergyGrowsAcrossSteps) {
  Fabric fabric(make_config(2, 0.2, 0.4));
  const auto before = fabric.total_energy();
  fabric.step();
  EXPECT_GT(fabric.total_energy().value, before.value);
}

TEST(FabricSurface, OverflowRoutedToLeastLoadedSibling) {
  // A saturated cluster next to an empty one: overflow must land on the
  // sibling instead of becoming an SLA violation.
  FabricConfig cfg = make_config(2, 0.0, 0.0);
  cfg.cluster_template.demand_change_probability = 0.0;
  Fabric fabric(cfg);
  // Fill cluster 0 completely by hand.
  auto& full = fabric.mutable_cluster(0);
  for (auto& s : full.mutable_servers()) {
    (void)full.inject_vm(s.id(), common::AppId{1}, 0.97);
  }
  // Cluster 0 cannot take 0.5 more anywhere; the sibling can.
  EXPECT_FALSE(full.accept_external(common::AppId{2}, 0.5));
  EXPECT_TRUE(fabric.mutable_cluster(1).accept_external(common::AppId{2}, 0.5));
}

TEST(FabricSurface, OverflowCountedInReports) {
  // High load with growth: some increments cannot be placed locally and get
  // offloaded; run a few steps and check the bookkeeping is consistent.
  // Under the mailbox protocol every offload the origins booked is either a
  // sibling placement or a fabric-level unplaced overflow -- never silently
  // dropped.
  FabricConfig cfg = make_config(3, 0.6, 0.8);
  cfg.cluster_template.demand_change_probability = 0.3;
  Fabric fabric(cfg);
  std::size_t offloaded_total = 0;
  std::size_t placements_total = 0;
  std::size_t unplaced_total = 0;
  for (int i = 0; i < 15; ++i) {
    const auto report = fabric.step();
    placements_total += report.inter_cluster_placements;
    unplaced_total += report.unplaced_overflows;
    for (const auto& c : report.clusters) offloaded_total += c.offloaded_requests;
  }
  EXPECT_EQ(offloaded_total, placements_total + unplaced_total);
}

TEST(FabricSurface, IsolatedFabricNeverOffloads) {
  FabricConfig cfg = make_config(3, 0.6, 0.8);
  cfg.inter_cluster_overflow = false;
  cfg.cluster_template.demand_change_probability = 0.3;
  Fabric fabric(cfg);
  for (int i = 0; i < 10; ++i) {
    const auto report = fabric.step();
    EXPECT_EQ(report.inter_cluster_placements, 0U);
    EXPECT_EQ(report.unplaced_overflows, 0U);
    for (const auto& c : report.clusters) {
      EXPECT_EQ(c.offloaded_requests, 0U);
    }
  }
}

TEST(FabricSurface, OverflowReplacesViolationsInFirstStep) {
  // The point of clustering for scalability: shared spare capacity.  Over a
  // long horizon the two variants are not comparable -- the shared fabric
  // *accepts* demand the isolated one rejects, so its later totals differ by
  // design.  The clean comparison is the first step, where the same local
  // placement failures either become offloads (shared) or violations
  // (isolated).
  auto build = [](bool overflow) {
    FabricConfig cfg;
    cfg.shard_count = 2;
    cfg.inter_cluster_overflow = overflow;
    cfg.cluster_template.server_count = 40;
    cfg.cluster_template.initial_load_min = 0.8;
    cfg.cluster_template.initial_load_max = 0.9;
    cfg.cluster_template.demand_change_probability = 0.5;
    cfg.cluster_template.seed = 5;
    return cfg;
  };
  auto cool_second_cluster = [](Fabric& fabric) {
    auto& cool = fabric.mutable_cluster(1);
    for (auto& s : cool.mutable_servers()) {
      std::vector<common::VmId> ids;
      for (const auto& v : s.vms()) ids.push_back(v.id());
      for (auto id : ids) (void)s.force_demand(id, 0.02);
    }
  };
  Fabric shared(build(true));
  cool_second_cluster(shared);
  Fabric isolated(build(false));
  cool_second_cluster(isolated);

  const auto shared_report = shared.step();
  const auto isolated_report = isolated.step();
  EXPECT_GT(shared_report.inter_cluster_placements, 0U);
  EXPECT_LT(shared_report.total_sla_violations(),
            isolated_report.total_sla_violations());
}

}  // namespace
}  // namespace eclb::cluster
