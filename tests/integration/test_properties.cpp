// Property-based invariants over the full cluster protocol, swept across
// sizes, loads and seeds with parameterized gtest.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/cluster.h"
#include "experiment/scenario.h"

namespace eclb {
namespace {

using experiment::AverageLoad;

struct SweepParam {
  std::size_t servers;
  AverageLoad load;
  std::uint64_t seed;
};

std::ostream& operator<<(std::ostream& os, const SweepParam& p) {
  return os << "n" << p.servers << "_" << (p.load == AverageLoad::kLow30 ? "30" : "70")
            << "_s" << p.seed;
}

class ClusterPropertySweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  cluster::ClusterConfig config() const {
    return experiment::paper_cluster_config(GetParam().servers, GetParam().load,
                                            GetParam().seed);
  }
};

TEST_P(ClusterPropertySweep, VmConservationWithoutGrowth) {
  // With demand evolution off, balancing must neither create nor destroy
  // VMs, and every VM's demand must be preserved exactly.
  auto cfg = config();
  cfg.demand_change_probability = 0.0;
  cluster::Cluster c(cfg);
  const std::size_t vms = c.total_vms();
  const double demand = c.total_demand();
  for (int i = 0; i < 15; ++i) c.step();
  EXPECT_EQ(c.total_vms(), vms);
  EXPECT_NEAR(c.total_demand(), demand, 1e-9);
}

TEST_P(ClusterPropertySweep, LoadsNeverExceedCapacityAfterBalancing) {
  cluster::Cluster c(config());
  for (int i = 0; i < 10; ++i) {
    const auto r = c.step();
    for (const auto& s : c.servers()) {
      // Oversubscription is only permitted transiently and must be reported.
      if (s.load() > 1.0 + 1e-9) {
        EXPECT_GT(r.sla_violations, 0U);
      }
    }
  }
}

TEST_P(ClusterPropertySweep, SleepingServersAreAlwaysEmpty) {
  cluster::Cluster c(config());
  for (int i = 0; i < 12; ++i) {
    c.step();
    for (const auto& s : c.servers()) {
      if (s.cstate() != energy::CState::kC0) {
        EXPECT_EQ(s.vm_count(), 0U);
      }
    }
  }
}

TEST_P(ClusterPropertySweep, HistogramPartitionsCluster) {
  cluster::Cluster c(config());
  for (int i = 0; i < 10; ++i) {
    c.step();
    const auto hist = c.regime_histogram();
    std::size_t awake_total = 0;
    for (auto h : hist) awake_total += h;
    EXPECT_EQ(awake_total + c.sleeping_count(), c.size());
  }
}

TEST_P(ClusterPropertySweep, EnergyStrictlyIncreasesEachInterval) {
  cluster::Cluster c(config());
  common::Joules last = c.total_energy();
  for (int i = 0; i < 10; ++i) {
    const auto r = c.step();
    EXPECT_GT(r.interval_energy.value, 0.0);
    const auto now = c.total_energy();
    EXPECT_GT(now.value, last.value);
    last = now;
  }
}

TEST_P(ClusterPropertySweep, DecisionCountsAreConsistent) {
  cluster::Cluster c(config());
  for (int i = 0; i < 10; ++i) {
    const auto r = c.step();
    EXPECT_EQ(r.migrations, r.shed_migrations + r.rebalance_migrations +
                                r.consolidation_migrations);
    EXPECT_EQ(r.in_cluster_decisions, r.migrations + r.horizontal_starts);
    EXPECT_GE(r.decision_ratio(), 0.0);
    EXPECT_TRUE(std::isfinite(r.decision_ratio()));
  }
}

TEST_P(ClusterPropertySweep, DemandBoundedRatePerInterval) {
  // The paper's model requirement: per-application demand changes at a
  // bounded rate.  Track one VM across intervals (if it survives in place).
  cluster::Cluster c(config());
  for (int step = 0; step < 8; ++step) {
    // Snapshot demands with their growth bounds.
    struct Snap {
      double demand;
      double lambda;
      double shrink;
    };
    std::unordered_map<common::VmId, Snap> before;
    for (const auto& s : c.servers()) {
      for (const auto& v : s.vms()) {
        EXPECT_GE(v.lambda(), c.config().lambda_min);
        EXPECT_LE(v.lambda(), c.config().lambda_max);
        // sample_growth matches the shrink bound to lambda.
        before[v.id()] = {v.demand(), v.lambda(), v.lambda()};
      }
    }
    c.step();
    for (const auto& s : c.servers()) {
      for (const auto& v : s.vms()) {
        auto it = before.find(v.id());
        if (it == before.end()) continue;  // created this interval
        const auto& snap = it->second;
        EXPECT_LE(v.demand(), snap.demand + snap.lambda + 1e-9);
        EXPECT_GE(v.demand(), snap.demand - snap.shrink - 1e-9);
      }
    }
  }
}

TEST_P(ClusterPropertySweep, DeterministicReplay) {
  cluster::Cluster a(config());
  cluster::Cluster b(config());
  for (int i = 0; i < 6; ++i) {
    const auto ra = a.step();
    const auto rb = b.step();
    EXPECT_EQ(ra.in_cluster_decisions, rb.in_cluster_decisions);
    EXPECT_EQ(ra.local_decisions, rb.local_decisions);
  }
  EXPECT_DOUBLE_EQ(a.total_energy().value, b.total_energy().value);
}

TEST_P(ClusterPropertySweep, ParkedPlusDeepEqualsSleeping) {
  cluster::Cluster c(config());
  for (int i = 0; i < 10; ++i) {
    c.step();
    // Every non-awake server is parked (C1), deep asleep (C3/C6), or in a
    // transition; transitions resolve by the next step, so after stepping the
    // parked + deep counts bound the sleeping count.
    EXPECT_GE(c.sleeping_count(),
              c.deep_sleeping_count());
    EXPECT_LE(c.deep_sleeping_count() + c.parked_count(), c.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClusterPropertySweep,
    ::testing::Values(SweepParam{40, AverageLoad::kLow30, 1},
                      SweepParam{40, AverageLoad::kHigh70, 2},
                      SweepParam{150, AverageLoad::kLow30, 3},
                      SweepParam{150, AverageLoad::kHigh70, 4},
                      SweepParam{400, AverageLoad::kLow30, 5},
                      SweepParam{400, AverageLoad::kHigh70, 6}),
    [](const ::testing::TestParamInfo<SweepParam>& param_info) {
      std::ostringstream os;
      os << param_info.param;
      return os.str();
    });

}  // namespace
}  // namespace eclb
