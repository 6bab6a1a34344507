#include "experiment/driver.h"

#include <gtest/gtest.h>

#include "experiment/scenario.h"

namespace eclb::experiment {
namespace {

cluster::ClusterConfig small_cfg() {
  auto cfg = paper_cluster_config(60, AverageLoad::kLow30, 9);
  return cfg;
}

TEST(Driver, RunsOneRoundPerInterval) {
  auto cfg = small_cfg();
  cluster::Cluster c(cfg);
  DesClusterDriver driver(c);
  const auto reports = driver.run_until(common::Seconds{600.0});
  EXPECT_EQ(reports.size(), 10U);  // tau = 60 s
  EXPECT_DOUBLE_EQ(c.now().value, 600.0);
}

TEST(Driver, MatchesDirectStepping) {
  auto cfg = small_cfg();
  cluster::Cluster direct(cfg);
  cluster::Cluster driven(cfg);
  DesClusterDriver driver(driven);
  const auto via_driver = driver.run_until(common::Seconds{300.0});
  std::vector<cluster::IntervalReport> via_run;
  for (int i = 0; i < 5; ++i) via_run.push_back(direct.step());
  ASSERT_EQ(via_driver.size(), via_run.size());
  for (std::size_t i = 0; i < via_run.size(); ++i) {
    EXPECT_EQ(via_driver[i].local_decisions, via_run[i].local_decisions);
    EXPECT_EQ(via_driver[i].in_cluster_decisions,
              via_run[i].in_cluster_decisions);
  }
  EXPECT_DOUBLE_EQ(direct.total_energy().value, driven.total_energy().value);
}

TEST(Driver, ScriptedActionFiresAtItsExactTime) {
  auto cfg = small_cfg();
  cluster::Cluster c(cfg);
  DesClusterDriver driver(c);
  std::vector<double> fired_at;
  driver.at(common::Seconds{90.0}, [&fired_at](cluster::Cluster& cl) {
    fired_at.push_back(cl.now().value);
  });
  driver.run_until(common::Seconds{300.0});
  // Everything shares the cluster's event kernel, so the action runs at
  // exactly t = 90 s -- mid-interval, before the round at 120 s.
  ASSERT_EQ(fired_at.size(), 1U);
  EXPECT_DOUBLE_EQ(fired_at[0], 90.0);
}

TEST(Driver, ActionsBeyondHorizonDropped) {
  auto cfg = small_cfg();
  cluster::Cluster c(cfg);
  DesClusterDriver driver(c);
  bool fired = false;
  driver.at(common::Seconds{10000.0}, [&fired](cluster::Cluster&) {
    fired = true;
  });
  driver.run_until(common::Seconds{300.0});
  EXPECT_FALSE(fired);
}

TEST(Driver, DemandShockRaisesLoadAndTriggersResponse) {
  auto cfg = small_cfg();
  cfg.demand_change_probability = 0.0;  // isolate the shock
  cluster::Cluster c(cfg);
  const double before = c.total_demand();
  DesClusterDriver driver(c);
  // A heavy flash crowd: 50 VMs of 0.55 push their hosts into the
  // suboptimal/undesirable-high regimes, forcing shed migrations.
  driver.inject_demand_at(common::Seconds{150.0}, 50, 0.55);
  const auto reports = driver.run_until(common::Seconds{600.0});
  EXPECT_NEAR(c.total_demand(), before + 50 * 0.55, 1e-9);
  // The shock lands before the round at t=180 (index 2); the protocol must
  // react with in-cluster activity at or after that round.
  std::size_t before_shock = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    before_shock += reports[i].in_cluster_decisions;
  }
  std::size_t after_shock = 0;
  for (std::size_t i = 2; i < reports.size(); ++i) {
    after_shock += reports[i].in_cluster_decisions;
  }
  EXPECT_GT(after_shock, before_shock);
}

TEST(Driver, MultipleActionsInOrder) {
  auto cfg = small_cfg();
  cluster::Cluster c(cfg);
  DesClusterDriver driver(c);
  std::vector<int> order;
  driver.at(common::Seconds{200.0}, [&order](cluster::Cluster&) {
    order.push_back(2);
  });
  driver.at(common::Seconds{50.0}, [&order](cluster::Cluster&) {
    order.push_back(1);
  });
  driver.run_until(common::Seconds{300.0});
  ASSERT_EQ(order.size(), 2U);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(DriverDeathTest, RejectsAdvancedCluster) {
  auto cfg = small_cfg();
  cluster::Cluster c(cfg);
  c.step();
  EXPECT_DEATH(DesClusterDriver{c}, "already advanced");
}

}  // namespace
}  // namespace eclb::experiment
