#include "policy/placement.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/index/regime_index.h"
#include "common/rng.h"
#include "experiment/scenario.h"
#include "support/scan_oracle.h"

namespace eclb::policy {
namespace {

using common::AppId;
using common::Rng;
using common::Seconds;
using common::ServerId;
using common::VmId;
using common::Watts;

constexpr double kEps = 1e-9;

server::ServerConfig make_config() {
  server::ServerConfig cfg;
  cfg.thresholds.alpha_sopt_low = 0.22;
  cfg.thresholds.alpha_opt_low = 0.35;
  cfg.thresholds.alpha_opt_high = 0.70;
  cfg.thresholds.alpha_sopt_high = 0.82;
  cfg.power_model =
      std::make_shared<energy::LinearPowerModel>(Watts{200.0}, 0.5);
  return cfg;
}

/// A fleet with randomized loads; a couple of servers are put to sleep so
/// the feasibility filters (awake, capacity) are exercised.
std::vector<server::Server> make_fleet(Rng& rng, std::size_t n) {
  std::vector<server::Server> servers;
  std::uint32_t next_vm = 0;
  for (std::size_t i = 0; i < n; ++i) {
    servers.emplace_back(ServerId{i}, make_config());
    // Servers 1 and 4 stay empty so they can be put to sleep below.
    const bool sleeper = n >= 6 && (i == 1 || i == 4);
    const double load = rng.uniform(0.0, 0.95);
    if (!sleeper && load > 0.01) {
      servers.back().force_place(vm::Vm(VmId{next_vm++}, AppId{0}, load));
    }
  }
  if (n >= 6) {
    (void)servers[1].begin_sleep(energy::CState::kC6, Seconds{0.0});
    (void)servers[4].begin_sleep(energy::CState::kC3, Seconds{0.0});
  }
  return servers;
}

// --- reference implementations: the pre-refactor switch-case bodies --------

std::optional<ServerId> reference_least_loaded(
    std::span<const server::Server> servers, Seconds now, double demand,
    ServerId exclude) {
  const server::Server* best = nullptr;
  for (const auto& t : servers) {
    if (t.id() == exclude || !t.awake(now)) continue;
    if (t.load() + demand > 1.0 + kEps) continue;
    if (best == nullptr || t.load() < best->load()) best = &t;
  }
  if (best == nullptr) return std::nullopt;
  return best->id();
}

std::optional<ServerId> reference_random(
    std::span<const server::Server> servers, Seconds now, double demand,
    ServerId exclude, Rng& rng) {
  std::vector<ServerId> feasible;
  for (const auto& t : servers) {
    if (t.id() == exclude || !t.awake(now)) continue;
    if (t.load() + demand > 1.0 + kEps) continue;
    feasible.push_back(t.id());
  }
  if (feasible.empty()) return std::nullopt;
  return feasible[rng.index(feasible.size())];
}

struct ReferenceRoundRobin {
  std::size_t cursor{0};

  std::optional<ServerId> pick(std::span<const server::Server> servers,
                               Seconds now, double demand, ServerId exclude) {
    for (std::size_t probe = 0; probe < servers.size(); ++probe) {
      cursor = (cursor + 1) % servers.size();
      const auto& t = servers[cursor];
      if (t.id() == exclude || !t.awake(now)) continue;
      if (t.load() + demand > 1.0 + kEps) continue;
      return t.id();
    }
    return std::nullopt;
  }
};

TEST(PlacementParity, LeastLoadedMatchesReference) {
  Rng fleet_rng(101);
  Rng unused(0);
  LeastLoadedPlacement policy;
  for (int trial = 0; trial < 20; ++trial) {
    auto servers = make_fleet(fleet_rng, 12);
    const Seconds now{30.0};
    for (double demand : {0.01, 0.1, 0.4, 0.9}) {
      for (std::size_t ex = 0; ex < servers.size(); ++ex) {
        const auto expected =
            reference_least_loaded(servers, now, demand, ServerId{ex});
        const auto got = policy.pick(servers, now, demand, ServerId{ex}, unused);
        EXPECT_EQ(got, expected) << "demand=" << demand << " exclude=" << ex;
      }
    }
  }
}

TEST(PlacementParity, RandomMatchesReferenceSeedForSeed) {
  Rng fleet_rng(202);
  RandomPlacement policy;
  Rng rng_policy(7);
  Rng rng_reference(7);
  for (int trial = 0; trial < 50; ++trial) {
    auto servers = make_fleet(fleet_rng, 10);
    const Seconds now{30.0};
    const double demand = 0.05 + 0.01 * trial;
    const auto expected =
        reference_random(servers, now, demand, ServerId{0}, rng_reference);
    const auto got = policy.pick(servers, now, demand, ServerId{0}, rng_policy);
    EXPECT_EQ(got, expected) << "trial " << trial;
  }
  // Same number of draws consumed: the streams must still be in lockstep.
  EXPECT_DOUBLE_EQ(rng_policy.uniform01(), rng_reference.uniform01());
}

TEST(PlacementParity, RoundRobinMatchesReferenceAcrossCalls) {
  Rng fleet_rng(303);
  Rng unused(0);
  auto servers = make_fleet(fleet_rng, 9);
  const Seconds now{30.0};
  RoundRobinPlacement policy;
  ReferenceRoundRobin reference;
  // The cursor persists across calls; the whole sequence must match.
  for (int call = 0; call < 40; ++call) {
    const double demand = (call % 2 == 0) ? 0.05 : 0.3;
    const auto expected = reference.pick(servers, now, demand, ServerId{2});
    const auto got = policy.pick(servers, now, demand, ServerId{2}, unused);
    EXPECT_EQ(got, expected) << "call " << call;
  }
}

/// The energy-aware rule (the regime index's widest tiered search) against
/// the leader's tiered scan.
TEST(PlacementParity, EnergyAwareMatchesLeaderTieredSearch) {
  Rng fleet_rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    auto servers = make_fleet(fleet_rng, 12);
    const cluster::index::RegimeIndex index(servers);
    const Seconds now{30.0};
    for (double demand : {0.02, 0.1, 0.25}) {
      const auto expected = test_support::find_tiered_target(
          servers, now, demand, ServerId{3}, PlacementTier::kStaySuboptimal);
      const auto got = index.find_tiered_target(demand, ServerId{3},
                                                PlacementTier::kStaySuboptimal);
      EXPECT_EQ(got, expected) << "demand=" << demand;
    }
  }
}

TEST(Placement, FactoryBuildsMatchingPolicy) {
  for (auto s : {PlacementStrategy::kLeastLoaded, PlacementStrategy::kRandom,
                 PlacementStrategy::kRoundRobin}) {
    const auto policy = make_placement(s);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), to_string(s));
  }
  // The energy-aware rule has no scanning policy object: the cluster's
  // regime index serves it.
  EXPECT_EQ(make_placement(PlacementStrategy::kEnergyAware), nullptr);
}

TEST(Placement, NoFeasibleTargetReturnsNullopt) {
  std::vector<server::Server> servers;
  servers.emplace_back(ServerId{0}, make_config());
  servers.back().force_place(vm::Vm(VmId{0}, AppId{0}, 0.99));
  Rng rng(1);
  const Seconds now{0.0};
  for (auto s : {PlacementStrategy::kLeastLoaded, PlacementStrategy::kRandom,
                 PlacementStrategy::kRoundRobin}) {
    const auto policy = make_placement(s);
    EXPECT_EQ(policy->pick(servers, now, 0.5, ServerId{9}, rng), std::nullopt)
        << policy->name();
  }
  const cluster::index::RegimeIndex index(servers);
  EXPECT_EQ(index.find_tiered_target(0.5, ServerId{9},
                                     PlacementTier::kStaySuboptimal),
            std::nullopt)
      << to_string(PlacementStrategy::kEnergyAware);
}

/// End-to-end determinism: for every strategy, two clusters built from the
/// same seed must produce identical interval streams (the placement layer
/// draws from the shared RNG exactly like the pre-refactor switch did).
TEST(PlacementClusterParity, EachStrategyIsSeedDeterministic) {
  for (auto s : {PlacementStrategy::kEnergyAware, PlacementStrategy::kLeastLoaded,
                 PlacementStrategy::kRandom, PlacementStrategy::kRoundRobin}) {
    auto cfg = experiment::paper_cluster_config(
        40, experiment::AverageLoad::kHigh70, 17);
    cfg.placement = s;
    cluster::Cluster a(cfg);
    cluster::Cluster b(cfg);
    for (std::size_t i = 0; i < 8; ++i) {
      const auto ra = a.step();
      const auto rb = b.step();
      EXPECT_EQ(ra.local_decisions, rb.local_decisions) << to_string(s);
      EXPECT_EQ(ra.in_cluster_decisions, rb.in_cluster_decisions)
          << to_string(s);
      EXPECT_EQ(ra.migrations, rb.migrations) << to_string(s);
      EXPECT_EQ(ra.sleeps, rb.sleeps) << to_string(s);
    }
    EXPECT_DOUBLE_EQ(a.total_energy().value, b.total_energy().value)
        << to_string(s);
  }
}

}  // namespace
}  // namespace eclb::policy
