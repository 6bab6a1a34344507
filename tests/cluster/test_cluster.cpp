#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <cmath>

namespace eclb::cluster {
namespace {

ClusterConfig small_config(double lo, double hi, std::uint64_t seed = 1) {
  ClusterConfig cfg;
  cfg.server_count = 50;
  cfg.initial_load_min = lo;
  cfg.initial_load_max = hi;
  cfg.seed = seed;
  return cfg;
}

TEST(Cluster, BuildsRequestedServerCount) {
  Cluster c(small_config(0.2, 0.4));
  EXPECT_EQ(c.size(), 50U);
  EXPECT_EQ(c.servers().size(), 50U);
}

TEST(Cluster, InitialLoadWithinConfiguredRange) {
  Cluster c(small_config(0.2, 0.4));
  for (const auto& s : c.servers()) {
    EXPECT_GE(s.load(), 0.1);  // small tolerance below the target
    EXPECT_LE(s.load(), 0.4 + 1e-9);
  }
  const double avg = c.total_demand() / static_cast<double>(c.size());
  EXPECT_NEAR(avg, 0.3, 0.05);
}

TEST(Cluster, HighLoadInitialization) {
  Cluster c(small_config(0.6, 0.8));
  const double avg = c.total_demand() / static_cast<double>(c.size());
  EXPECT_NEAR(avg, 0.7, 0.05);
}

TEST(Cluster, HeterogeneousThresholds) {
  Cluster c(small_config(0.2, 0.4));
  const auto& a = c.servers()[0].thresholds();
  const auto& b = c.servers()[1].thresholds();
  EXPECT_NE(a.alpha_opt_low, b.alpha_opt_low);
}

TEST(Cluster, EveryVmHasGrowthSpec) {
  Cluster c(small_config(0.2, 0.4));
  for (const auto& s : c.servers()) {
    for (const auto& v : s.vms()) {
      EXPECT_GE(v.lambda(), c.config().lambda_min);
      EXPECT_LE(v.lambda(), c.config().lambda_max);
    }
  }
}

TEST(Cluster, StepAdvancesClock) {
  Cluster c(small_config(0.2, 0.4));
  EXPECT_DOUBLE_EQ(c.now().value, 0.0);
  c.step();
  EXPECT_DOUBLE_EQ(c.now().value, c.config().reallocation_interval.value);
  c.step();
  EXPECT_DOUBLE_EQ(c.now().value, 2.0 * c.config().reallocation_interval.value);
}

TEST(Cluster, DeterministicForSameSeed) {
  Cluster a(small_config(0.2, 0.4, 7));
  Cluster b(small_config(0.2, 0.4, 7));
  for (int i = 0; i < 10; ++i) {
    const auto ra = a.step();
    const auto rb = b.step();
    EXPECT_EQ(ra.local_decisions, rb.local_decisions);
    EXPECT_EQ(ra.in_cluster_decisions, rb.in_cluster_decisions);
    EXPECT_EQ(ra.migrations, rb.migrations);
    EXPECT_EQ(ra.sleeps, rb.sleeps);
  }
  EXPECT_DOUBLE_EQ(a.total_demand(), b.total_demand());
}

TEST(Cluster, DifferentSeedsDiffer) {
  Cluster a(small_config(0.2, 0.4, 1));
  Cluster b(small_config(0.2, 0.4, 2));
  EXPECT_NE(a.total_demand(), b.total_demand());
}

TEST(Cluster, DemandConservedByBalancing) {
  // Balancing moves VMs; only demand evolution changes total demand.  With
  // demand changes disabled, total demand is exactly conserved.
  ClusterConfig cfg = small_config(0.2, 0.4);
  cfg.demand_change_probability = 0.0;
  Cluster c(cfg);
  const double before = c.total_demand();
  const std::size_t vms_before = c.total_vms();
  for (int i = 0; i < 20; ++i) c.step();
  EXPECT_NEAR(c.total_demand(), before, 1e-9);
  EXPECT_EQ(c.total_vms(), vms_before);  // no horizontal starts either
}

TEST(Cluster, RegimeHistogramCountsAwakeServers) {
  Cluster c(small_config(0.2, 0.4));
  const auto hist = c.regime_histogram();
  std::size_t total = 0;
  for (auto h : hist) total += h;
  EXPECT_EQ(total + c.sleeping_count(), c.size());
}

TEST(Cluster, LowLoadInitialHistogramLeansLeft) {
  Cluster c(small_config(0.2, 0.4));
  const auto hist = c.regime_histogram();
  // Mass in R1+R2+R3, none above (loads <= 0.4 < alpha_opt_high >= 0.55).
  EXPECT_EQ(hist[3], 0U);
  EXPECT_EQ(hist[4], 0U);
  EXPECT_GT(hist[1] + hist[0], 0U);
}

TEST(Cluster, HighLoadInitialHistogramLeansRight) {
  Cluster c(small_config(0.6, 0.8));
  const auto hist = c.regime_histogram();
  EXPECT_EQ(hist[0], 0U);
  EXPECT_EQ(hist[1], 0U);
  EXPECT_GT(hist[2] + hist[3], 0U);
}

TEST(Cluster, BalancingReducesExtremeRegimes) {
  ClusterConfig cfg = small_config(0.6, 0.8);
  cfg.demand_change_probability = 0.0;
  Cluster c(cfg);
  const auto before = c.regime_histogram();
  for (int i = 0; i < 10; ++i) c.step();
  const auto after = c.regime_histogram();
  // Shedding moves R4/R5 mass toward the optimal region.
  EXPECT_LT(after[3] + after[4], before[3] + before[4]);
  EXPECT_GT(after[2], before[2]);
}

TEST(Cluster, EnergyGrowsMonotonically) {
  Cluster c(small_config(0.2, 0.4));
  common::Joules last = c.total_energy();
  for (int i = 0; i < 5; ++i) {
    c.step();
    const common::Joules now = c.total_energy();
    EXPECT_GT(now.value, last.value);
    last = now;
  }
}

TEST(Cluster, IntervalEnergyMatchesTotalDelta) {
  Cluster c(small_config(0.2, 0.4));
  const common::Joules before = c.total_energy();
  const auto report = c.step();
  const common::Joules after = c.total_energy();
  EXPECT_NEAR(report.interval_energy.value, (after - before).value, 1e-6);
}

TEST(Cluster, SleepDisabledKeepsEveryoneAwake) {
  ClusterConfig cfg = small_config(0.2, 0.4);
  cfg.allow_sleep = false;
  Cluster c(cfg);
  for (int i = 0; i < 15; ++i) c.step();
  EXPECT_EQ(c.sleeping_count(), 0U);
  EXPECT_EQ(c.parked_count(), 0U);
  EXPECT_EQ(c.deep_sleeping_count(), 0U);
}

TEST(Cluster, SmallClusterNeverDeepSleeps) {
  // floor(0.008 * 50) == 0: the guardrail blocks deep sleep entirely, which
  // reproduces Table 2's zero sleepers at small cluster sizes.
  Cluster c(small_config(0.2, 0.4));
  for (int i = 0; i < 20; ++i) c.step();
  EXPECT_EQ(c.deep_sleeping_count(), 0U);
}

TEST(Cluster, LargeLowLoadClusterDeepSleeps) {
  ClusterConfig cfg = small_config(0.2, 0.4);
  cfg.server_count = 500;  // budget = 4 per interval
  Cluster c(cfg);
  for (int i = 0; i < 10; ++i) c.step();
  EXPECT_GT(c.deep_sleeping_count(), 0U);
}

TEST(Cluster, HighLoadClusterDoesNotDeepSleep) {
  ClusterConfig cfg = small_config(0.6, 0.8);
  cfg.server_count = 500;
  Cluster c(cfg);
  for (int i = 0; i < 10; ++i) c.step();
  EXPECT_EQ(c.deep_sleeping_count(), 0U);
}

TEST(Cluster, DeepSleepStateFollowsSixtyPercentRule) {
  // At 30 % cluster load the leader must choose C6.
  ClusterConfig cfg = small_config(0.2, 0.4);
  cfg.server_count = 500;
  Cluster c(cfg);
  for (int i = 0; i < 10; ++i) c.step();
  ASSERT_GT(c.deep_sleeping_count(), 0U);
  for (const auto& s : c.servers()) {
    if (s.cstate() == energy::CState::kC3 || s.cstate() == energy::CState::kC6) {
      EXPECT_EQ(s.cstate(), energy::CState::kC6);
    }
  }
}

TEST(Cluster, ForcedSleepStateOverridesRule) {
  ClusterConfig cfg = small_config(0.2, 0.4);
  cfg.server_count = 500;
  cfg.forced_sleep_state = energy::CState::kC3;
  Cluster c(cfg);
  for (int i = 0; i < 10; ++i) c.step();
  ASSERT_GT(c.deep_sleeping_count(), 0U);
  for (const auto& s : c.servers()) {
    EXPECT_NE(s.cstate(), energy::CState::kC6);
  }
}

TEST(Cluster, DecisionRatioFiniteWithZeroLocals) {
  IntervalReport r;
  r.in_cluster_decisions = 5;
  r.local_decisions = 0;
  EXPECT_DOUBLE_EQ(r.decision_ratio(), 5.0);
  r.local_decisions = 10;
  EXPECT_DOUBLE_EQ(r.decision_ratio(), 0.5);
}

TEST(Cluster, ReportsCountDecisionBreakdown) {
  Cluster c(small_config(0.6, 0.8));
  const auto r = c.step();
  EXPECT_EQ(r.migrations, r.shed_migrations + r.rebalance_migrations +
                              r.consolidation_migrations);
  EXPECT_EQ(r.in_cluster_decisions, r.migrations + r.horizontal_starts);
}

TEST(Cluster, RunCollectsReports) {
  Cluster c(small_config(0.2, 0.4));
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(c.step().interval_index, i);
  }
}

TEST(Cluster, MessageTrafficAccumulates) {
  Cluster c(small_config(0.6, 0.8));
  c.step();
  EXPECT_GT(c.message_stats().total(), 0U);
  EXPECT_GT(c.message_stats().count(MessageKind::kRegimeReport), 0U);
  EXPECT_GT(c.message_stats().energy().value, 0.0);
}

TEST(Cluster, InClusterCostsExceedLocalPerDecision) {
  Cluster c(small_config(0.6, 0.8));
  std::size_t locals = 0;
  std::size_t remotes = 0;
  for (int i = 0; i < 10; ++i) {
    const IntervalReport r = c.step();
    locals += r.local_decisions;
    remotes += r.in_cluster_decisions;
  }
  ASSERT_GT(locals, 0U);
  ASSERT_GT(remotes, 0U);
  const double local_per =
      c.local_cost_total().energy.value / static_cast<double>(locals);
  const double remote_per =
      c.in_cluster_cost_total().energy.value / static_cast<double>(remotes);
  // The paper's premise: in-cluster (horizontal) decisions are the
  // high-cost ones.
  EXPECT_GT(remote_per, 10.0 * local_per);
}

TEST(Cluster, LoadFractionMatchesDemand) {
  Cluster c(small_config(0.2, 0.4));
  EXPECT_NEAR(c.load_fraction(),
              c.total_demand() / static_cast<double>(c.size()), 1e-12);
}

TEST(Cluster, HeterogeneousHardwareMixesPeaks) {
  ClusterConfig cfg = small_config(0.2, 0.4);
  cfg.server_count = 400;
  cfg.heterogeneous_hardware = true;
  Cluster c(cfg);
  std::size_t volume = 0;
  std::size_t mid = 0;
  std::size_t high = 0;
  for (const auto& s : c.servers()) {
    const double peak = s.power_model().peak_power().value;
    if (peak == 225.0) ++volume;
    else if (peak == 675.0) ++mid;
    else if (peak == 8163.0) ++high;
    else FAIL() << "unexpected peak " << peak;
  }
  // Roughly 70 / 25 / 5 split.
  EXPECT_GT(volume, 220U);
  EXPECT_GT(mid, 50U);
  EXPECT_GT(high, 5U);
}

TEST(Cluster, HeterogeneousHardwareBurnsMoreEnergy) {
  ClusterConfig uniform = small_config(0.2, 0.4);
  ClusterConfig mixed = small_config(0.2, 0.4);
  mixed.heterogeneous_hardware = true;
  Cluster a(uniform);
  Cluster b(mixed);
  for (int i = 0; i < 5; ++i) {
    a.step();
    b.step();
  }
  // Mid/high-end boxes draw far more power than volume servers.
  EXPECT_GT(b.total_energy().value, a.total_energy().value);
}

TEST(Cluster, QosViolationsReportedAboveCap) {
  ClusterConfig cfg = small_config(0.6, 0.8);
  analytic::QosTarget qos;
  qos.service_time = 0.040;
  qos.max_response_time = 0.100;  // cap = 0.6: many servers start above it
  cfg.qos = qos;
  Cluster c(cfg);
  const auto report = c.step();
  EXPECT_GT(report.qos_violations, 0U);
}

TEST(Cluster, NoQosTargetNoQosViolations) {
  Cluster c(small_config(0.6, 0.8));
  const auto report = c.step();
  EXPECT_EQ(report.qos_violations, 0U);
}

TEST(Cluster, LooseQosNeverViolated) {
  ClusterConfig cfg = small_config(0.2, 0.4);
  analytic::QosTarget qos;
  qos.service_time = 0.001;
  qos.max_response_time = 1.0;  // cap 0.999
  cfg.qos = qos;
  Cluster c(cfg);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(c.step().qos_violations, 0U);
  }
}

TEST(Cluster, PlacementStrategyNames) {
  EXPECT_EQ(to_string(PlacementStrategy::kEnergyAware), "energy-aware");
  EXPECT_EQ(to_string(PlacementStrategy::kLeastLoaded), "least-loaded");
  EXPECT_EQ(to_string(PlacementStrategy::kRandom), "random");
  EXPECT_EQ(to_string(PlacementStrategy::kRoundRobin), "round-robin");
}

TEST(Cluster, TraditionalModeNeverMigratesOrSleeps) {
  ClusterConfig cfg = small_config(0.2, 0.4);
  cfg.regime_actions_enabled = false;
  cfg.rebalance_enabled = false;
  cfg.allow_sleep = false;
  cfg.placement = PlacementStrategy::kLeastLoaded;
  Cluster c(cfg);
  for (int i = 0; i < 15; ++i) {
    const auto r = c.step();
    EXPECT_EQ(r.migrations, 0U);
    EXPECT_EQ(r.sleeps, 0U);
  }
  EXPECT_EQ(c.sleeping_count(), 0U);
}

/// Per-cause migration, drain and sleep totals of a 30-interval run.
struct RoundTotals {
  std::size_t shed{0};
  std::size_t rebalance{0};
  std::size_t consolidation{0};
  std::size_t drains{0};
  std::size_t sleeps{0};
};

RoundTotals run_round_totals(const ClusterConfig& cfg) {
  Cluster c(cfg);
  RoundTotals t;
  for (int i = 0; i < 30; ++i) {
    const auto r = c.step();
    t.shed += r.shed_migrations;
    t.rebalance += r.rebalance_migrations;
    t.consolidation += r.consolidation_migrations;
    t.drains += r.drains;
    t.sleeps += r.sleeps;
  }
  return t;
}

TEST(ProtocolRound, GatesActOneSwitchAtATime) {
  // A wide initial spread (loads 5-80 %) on 200 servers exercises every
  // gated path: R4/R5 shedding, the above-center rebalance, R1 drains and
  // deep sleeps (the sleep budget floors to zero below 125 servers).
  ClusterConfig cfg = small_config(0.05, 0.8);
  cfg.server_count = 200;

  const RoundTotals all = run_round_totals(cfg);
  EXPECT_GT(all.shed, 0U);
  EXPECT_GT(all.rebalance, 0U);
  EXPECT_GT(all.consolidation, 0U);
  EXPECT_GT(all.drains, 0U);
  EXPECT_GT(all.sleeps, 0U);

  ClusterConfig no_rebalance = cfg;
  no_rebalance.rebalance_enabled = false;
  const RoundTotals nr = run_round_totals(no_rebalance);
  EXPECT_EQ(nr.rebalance, 0U);
  EXPECT_GT(nr.shed, 0U);
  EXPECT_GT(nr.consolidation, 0U);
  EXPECT_GT(nr.sleeps, 0U);

  ClusterConfig no_sleep = cfg;
  no_sleep.allow_sleep = false;
  const RoundTotals ns = run_round_totals(no_sleep);
  EXPECT_EQ(ns.sleeps, 0U);
  EXPECT_EQ(ns.drains, 0U);
  EXPECT_EQ(ns.consolidation, 0U);
  EXPECT_GT(ns.rebalance, 0U);
  EXPECT_GT(ns.shed, 0U);

  ClusterConfig no_regime = cfg;
  no_regime.regime_actions_enabled = false;
  const RoundTotals nx = run_round_totals(no_regime);
  EXPECT_EQ(nx.shed, 0U);
  EXPECT_EQ(nx.rebalance, 0U);
  EXPECT_EQ(nx.consolidation, 0U);
  EXPECT_EQ(nx.sleeps, 0U);
}

TEST(Cluster, EnergyAwareBeatsTraditionalAtLowLoad) {
  // The Section 1 claim, end to end: consolidation + sleep saves energy at
  // low load against an always-on even spreader.
  ClusterConfig aware = small_config(0.2, 0.4);
  aware.server_count = 300;
  ClusterConfig traditional = aware;
  traditional.regime_actions_enabled = false;
  traditional.rebalance_enabled = false;
  traditional.allow_sleep = false;
  traditional.placement = PlacementStrategy::kLeastLoaded;
  Cluster a(aware);
  Cluster t(traditional);
  for (int i = 0; i < 40; ++i) {
    a.step();
    t.step();
  }
  EXPECT_LT(a.total_energy().value, t.total_energy().value);
}

TEST(Cluster, RoundRobinCyclesThroughServers) {
  ClusterConfig cfg = small_config(0.2, 0.4);
  cfg.placement = PlacementStrategy::kRoundRobin;
  cfg.regime_actions_enabled = false;
  cfg.allow_sleep = false;
  // Force horizontal placements by making vertical scaling impossible:
  // every server pinned at its suboptimal-high boundary would be complex;
  // instead just verify a few steps run cleanly and decisions stay
  // consistent under the alternative strategy.
  Cluster c(cfg);
  for (int i = 0; i < 10; ++i) {
    const auto r = c.step();
    EXPECT_EQ(r.in_cluster_decisions, r.migrations + r.horizontal_starts);
  }
}

TEST(Cluster, RandomPlacementDeterministicPerSeed) {
  ClusterConfig cfg = small_config(0.6, 0.8, 21);
  cfg.placement = PlacementStrategy::kRandom;
  Cluster a(cfg);
  Cluster b(cfg);
  for (int i = 0; i < 8; ++i) {
    const auto ra = a.step();
    const auto rb = b.step();
    EXPECT_EQ(ra.horizontal_starts, rb.horizontal_starts);
    EXPECT_EQ(ra.in_cluster_decisions, rb.in_cluster_decisions);
  }
}

TEST(ClusterDeathTest, ZeroServersAborts) {
  ClusterConfig cfg;
  cfg.server_count = 0;
  EXPECT_DEATH(Cluster{cfg}, "at least one server");
}

/// Counts observer callbacks; used to pin the attach/detach contract.
class CountingObserver final : public ClusterObserver {
 public:
  void on_interval_begin(std::size_t, common::Seconds) override { ++begins; }
  void on_event(const ProtocolEvent&) override { ++events; }
  void on_interval_end(const IntervalReport& report, common::Seconds) override {
    ++ends;
    last_report = report;
  }
  void on_phase(std::string_view phase, double) override {
    if (phase == "round") ++round_phases;
  }

  int begins{0};
  int events{0};
  int ends{0};
  int round_phases{0};
  IntervalReport last_report{};
};

TEST(Cluster, ObserverSeesEveryIntervalBoundary) {
  Cluster c(small_config(0.2, 0.4));
  CountingObserver obs;
  c.attach_observer(&obs);
  for (int i = 0; i < 4; ++i) (void)c.step();
  EXPECT_EQ(obs.begins, 4);
  EXPECT_EQ(obs.ends, 4);
  EXPECT_EQ(obs.round_phases, 4);
  EXPECT_EQ(obs.last_report.interval_index, 3U);
}

TEST(Cluster, ObserverEventCountsMatchReport) {
  Cluster c(small_config(0.5, 0.9));
  CountingObserver obs;
  c.attach_observer(&obs);
  const auto report = c.step();
  // Every counted occurrence was also delivered as a typed event; the
  // decision events alone already bound the total from below.
  EXPECT_GE(obs.events,
            static_cast<int>(report.local_decisions +
                             report.in_cluster_decisions));
  EXPECT_GT(obs.events, 0);
}

TEST(Cluster, DetachedObserverHearsNothing) {
  Cluster c(small_config(0.2, 0.4));
  CountingObserver obs;
  c.attach_observer(&obs);
  (void)c.step();
  const int after_first = obs.ends;
  c.detach_observers();
  (void)c.step();
  EXPECT_EQ(obs.ends, after_first);
}

TEST(Cluster, ObservationDoesNotPerturbSimulation) {
  Cluster plain(small_config(0.3, 0.6, 9));
  Cluster watched(small_config(0.3, 0.6, 9));
  CountingObserver obs;
  watched.attach_observer(&obs);
  for (int i = 0; i < 5; ++i) {
    const auto rp = plain.step();
    const auto rw = watched.step();
    EXPECT_EQ(rp.local_decisions, rw.local_decisions);
    EXPECT_EQ(rp.in_cluster_decisions, rw.in_cluster_decisions);
    EXPECT_EQ(rp.migrations, rw.migrations);
    EXPECT_EQ(rp.sleeps, rw.sleeps);
    EXPECT_DOUBLE_EQ(rp.interval_energy.value, rw.interval_energy.value);
  }
  EXPECT_DOUBLE_EQ(plain.total_energy().value, watched.total_energy().value);
}

}  // namespace
}  // namespace eclb::cluster
