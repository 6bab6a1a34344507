// Direct tests of the cluster's fault-tolerance surface: crash/recover,
// derating, leadership failover via a stub FaultRuntime, and orphan
// re-placement by the protocol's RecoverOrphans action.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/faults.h"

namespace eclb::cluster {
namespace {

using common::Seconds;
using common::ServerId;

ClusterConfig small_config(std::uint64_t seed = 1) {
  ClusterConfig cfg;
  cfg.server_count = 50;
  cfg.initial_load_min = 0.2;
  cfg.initial_load_max = 0.4;
  cfg.seed = seed;
  return cfg;
}

/// Minimal fault runtime: fault-free links, deterministic protocol
/// parameters.  The cluster's recorder books what the tests check.
class StubRuntime final : public FaultRuntime {
 public:
  bool deliver(MessageKind, common::ServerId) override { return true; }
  common::Seconds link_delay(common::ServerId) const override {
    return Seconds{0.0};
  }
  bool migration_fails(common::ServerId, common::ServerId) override {
    return false;
  }
  common::Seconds retry_backoff(std::size_t attempt) const override {
    return Seconds{0.5 * static_cast<double>(attempt)};
  }
  std::size_t max_retries() const override { return 2; }
  common::Seconds heartbeat_period() const override { return Seconds{5.0}; }
  std::size_t failover_after_missed() const override { return 3; }
};

TEST(ClusterFaults, CrashOrphansVmsAndStopsPower) {
  Cluster c(small_config());
  const ServerId victim{5};
  const std::size_t vms = c.servers()[victim.index()].vms().size();
  ASSERT_GT(vms, 0U);
  const std::size_t total_before = c.total_vms();

  c.crash_server(victim);
  const auto& s = c.servers()[victim.index()];
  EXPECT_TRUE(s.failed());
  EXPECT_FALSE(s.awake(c.now()));
  EXPECT_TRUE(s.vms().empty());
  EXPECT_DOUBLE_EQ(s.power(c.now()).value, 0.0);
  EXPECT_FALSE(s.regime().has_value());
  EXPECT_EQ(c.failed_count(), 1U);
  EXPECT_EQ(c.orphans().size(), vms);
  EXPECT_EQ(c.total_vms(), total_before - vms);
  for (const auto& o : c.orphans()) {
    EXPECT_EQ(o.origin, victim);
    EXPECT_GT(o.demand, 0.0);
  }
}

TEST(ClusterFaults, CrashIsIdempotent) {
  Cluster c(small_config());
  c.crash_server(ServerId{5});
  const std::size_t orphans = c.orphans().size();
  c.crash_server(ServerId{5});
  EXPECT_EQ(c.failed_count(), 1U);
  EXPECT_EQ(c.orphans().size(), orphans);
}

TEST(ClusterFaults, NonLeaderCrashKeepsLeadershipUp) {
  Cluster c(small_config());
  ASSERT_EQ(c.leader_server(), ServerId{0});
  c.crash_server(ServerId{5});
  EXPECT_TRUE(c.leader_available());
}

TEST(ClusterFaults, LeaderCrashStallsLeadership) {
  Cluster c(small_config());
  c.crash_server(c.leader_server());
  EXPECT_FALSE(c.leader_available());
}

TEST(ClusterFaults, RecoverReturnsServerEmptyAndAwake) {
  Cluster c(small_config());
  c.crash_server(ServerId{5});
  c.recover_server(ServerId{5});
  const auto& s = c.servers()[5];
  EXPECT_FALSE(s.failed());
  EXPECT_TRUE(s.awake(c.now()));
  EXPECT_TRUE(s.vms().empty());
  EXPECT_EQ(c.failed_count(), 0U);
  // Recovery does not resurrect the orphans -- the protocol re-places them.
  c.recover_server(ServerId{5});  // no-op when not failed
  EXPECT_EQ(c.failed_count(), 0U);
}

TEST(ClusterFaults, LeaderReturningBeforeFailoverRestoresLeadership) {
  Cluster c(small_config());
  c.crash_server(c.leader_server());
  EXPECT_FALSE(c.leader_available());
  c.recover_server(c.leader_server());
  EXPECT_TRUE(c.leader_available());
  EXPECT_EQ(c.leader_server(), ServerId{0});
}

TEST(ClusterFaults, DerateLowersCapacity) {
  Cluster c(small_config());
  c.derate_server(ServerId{3}, 0.5);
  EXPECT_DOUBLE_EQ(c.servers()[3].capacity(), 0.5);
}

TEST(ClusterFaults, HeartbeatFailoverElectsLowestLiveSurvivor) {
  Cluster c(small_config());
  StubRuntime faults;
  c.install_faults(&faults);

  c.crash_server(c.leader_server());  // at t = 0
  ASSERT_FALSE(c.leader_available());
  // Heartbeat fires at 5, 10, 15 -> third miss triggers election.
  const auto report = c.step();

  EXPECT_TRUE(c.leader_available());
  EXPECT_NE(c.leader_server(), ServerId{0});
  EXPECT_TRUE(!c.servers()[c.leader_server().index()].failed());
  EXPECT_EQ(report.failovers, 1U);
  EXPECT_EQ(c.recorder().totals().failovers, 1U);
  const common::RunningStats& outage =
      c.recorder().samples().failover_outage;
  EXPECT_EQ(outage.count(), 1U);
  EXPECT_DOUBLE_EQ(outage.mean(), 15.0);
  EXPECT_GE(c.message_stats().count(MessageKind::kHeartbeat), 3U);
  // Election broadcast reaches every live server.
  EXPECT_EQ(c.message_stats().count(MessageKind::kElection), c.size() - 1);

  c.install_faults(nullptr);
}

TEST(ClusterFaults, OrphansAreReplacedByTheProtocol) {
  ClusterConfig cfg = small_config();
  cfg.demand_change_probability = 0.0;  // conserve demand exactly
  Cluster c(cfg);
  StubRuntime faults;
  c.install_faults(&faults);

  const double demand_before = c.total_demand();
  c.crash_server(ServerId{5});
  ASSERT_FALSE(c.orphans().empty());

  const auto report = c.step();
  EXPECT_TRUE(c.orphans().empty());
  EXPECT_GT(report.orphans_replaced, 0U);
  EXPECT_EQ(report.crashes, 1U);
  EXPECT_EQ(report.failed_servers, 1U);
  // Every displaced VM is running again, so no demand was lost...
  EXPECT_NEAR(c.total_demand(), demand_before, 1e-9);
  // ...and the crash episode closed with one MTTR sample.
  const common::RunningStats& repair = c.recorder().samples().repair_time;
  EXPECT_EQ(repair.count(), 1U);
  EXPECT_GT(repair.mean(), 0.0);

  c.install_faults(nullptr);
}

TEST(ClusterFaults, UninstallDisarmsHeartbeat) {
  Cluster c(small_config());
  StubRuntime faults;
  c.install_faults(&faults);
  c.install_faults(nullptr);
  c.step();
  EXPECT_EQ(c.message_stats().count(MessageKind::kHeartbeat), 0U);
}

TEST(ClusterFaults, FailedServerDrawsNoPlacements) {
  ClusterConfig cfg = small_config();
  Cluster c(cfg);
  c.crash_server(ServerId{5});
  for (int i = 0; i < 5; ++i) c.step();
  EXPECT_TRUE(c.servers()[5].failed());
  EXPECT_TRUE(c.servers()[5].vms().empty());
}

TEST(ClusterFaults, CrashWithRuntimeInstalledIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    ClusterConfig cfg = small_config(seed);
    Cluster c(cfg);
    StubRuntime faults;
    c.install_faults(&faults);
    c.crash_server(ServerId{2});
    std::vector<IntervalReport> reports;
    for (int i = 0; i < 10; ++i) reports.push_back(c.step());
    c.install_faults(nullptr);
    return reports;
  };
  const auto a = run(7);
  const auto b = run(7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].migrations, b[i].migrations) << i;
    EXPECT_EQ(a[i].orphans_replaced, b[i].orphans_replaced) << i;
    EXPECT_EQ(a[i].sla_violations, b[i].sla_violations) << i;
    EXPECT_DOUBLE_EQ(a[i].interval_energy.value, b[i].interval_energy.value)
        << i;
  }
}

}  // namespace
}  // namespace eclb::cluster
