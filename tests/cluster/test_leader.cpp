// The cluster leader's decisions: the matchmaking queries, answered by the
// regime index over hand-built servers, and the sleep-depth rule.
#include "cluster/leader.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/index/regime_index.h"
#include "policy/placement.h"

namespace eclb::cluster {
namespace {

using index::RegimeIndex;
using policy::PlacementTier;

using common::AppId;
using common::Seconds;
using common::ServerId;
using common::VmId;
using common::Watts;

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

/// Builds a small cluster with the given per-server loads.  Tests build the
/// RegimeIndex after the last state change, so it needs no notifications.
std::vector<server::Server> make_servers(const std::vector<double>& loads) {
  std::vector<server::Server> servers;
  std::uint32_t next_vm = 0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    servers.emplace_back(ServerId{i}, make_config());
    if (loads[i] > 0.0) {
      servers.back().force_place(
          vm::Vm(VmId{next_vm++}, AppId{0}, loads[i]));
    }
  }
  return servers;
}

TEST(Leader, FindsLowRegimeTarget) {
  auto servers = make_servers({0.10, 0.30, 0.60});
  const RegimeIndex leader(servers);
  const auto target = leader.find_tiered_target(0.1, ServerId{99},
                                                PlacementTier::kLowRegimesOnly);
  ASSERT_TRUE(target.has_value());
  // Both 0.10 (R1) and 0.30 (R2) qualify; 0.30 + 0.1 = 0.40 is closer to the
  // optimal center (0.525) than 0.20, so the fuller server wins.
  EXPECT_EQ(*target, ServerId{1});
}

TEST(Leader, ExcludesRequestingServer) {
  auto servers = make_servers({0.30});
  const RegimeIndex leader(servers);
  const auto target = leader.find_tiered_target(0.1, ServerId{0},
                                                PlacementTier::kLowRegimesOnly);
  EXPECT_FALSE(target.has_value());
}

TEST(Leader, StrictTierRejectsOptimalServers) {
  auto servers = make_servers({0.50});  // R3
  const RegimeIndex leader(servers);
  EXPECT_FALSE(leader.find_tiered_target(0.05, ServerId{99},
                                         PlacementTier::kLowRegimesOnly)
                   .has_value());
  // The wider tier accepts it while the result stays within optimal.
  EXPECT_TRUE(leader.find_tiered_target(0.05, ServerId{99},
                                        PlacementTier::kStayOptimal)
                  .has_value());
}

TEST(Leader, RejectsPlacementsBreachingOptimal) {
  auto servers = make_servers({0.68});  // R3 near the top
  const RegimeIndex leader(servers);
  // 0.68 + 0.1 = 0.78 > alpha_opt_high (0.70): not admissible at kStayOptimal.
  EXPECT_FALSE(leader.find_tiered_target(0.1, ServerId{99},
                                         PlacementTier::kStayOptimal)
                   .has_value());
  // kStaySuboptimal allows up to 0.82.
  EXPECT_TRUE(leader.find_tiered_target(0.1, ServerId{99},
                                        PlacementTier::kStaySuboptimal)
                  .has_value());
}

TEST(Leader, NothingFitsReturnsNullopt) {
  auto servers = make_servers({0.80, 0.81});
  const RegimeIndex leader(servers);
  EXPECT_FALSE(leader.find_tiered_target(0.3, ServerId{99},
                                         PlacementTier::kStaySuboptimal)
                   .has_value());
}

TEST(Leader, SkipsSleepingServers) {
  auto servers = make_servers({0.0, 0.30});
  servers[0].begin_sleep(energy::CState::kC6, Seconds{0.0});
  servers[0].settle(Seconds{100.0});
  const RegimeIndex leader(servers);
  const auto target = leader.find_tiered_target(0.1, ServerId{99},
                                                PlacementTier::kLowRegimesOnly);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, ServerId{1});
}

TEST(Leader, BelowCenterTargetStaysBelowCenter) {
  auto servers = make_servers({0.40, 0.50});
  const RegimeIndex leader(servers);
  // Demand 0.05: 0.50 + 0.05 = 0.55 > center 0.525 -> excluded;
  // 0.40 + 0.05 = 0.45 <= 0.525 -> accepted.
  const auto target = leader.find_below_center_target(0.05, ServerId{99});
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, ServerId{0});
}

TEST(Leader, BelowCenterPrefersFullest) {
  auto servers = make_servers({0.10, 0.40});
  const RegimeIndex leader(servers);
  const auto target = leader.find_below_center_target(0.05, ServerId{99});
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, ServerId{1});
}

TEST(Leader, ServersInFiltersByRegime) {
  auto servers = make_servers({0.10, 0.30, 0.50, 0.75, 0.95});
  const RegimeIndex leader(servers);
  // The leader's per-regime member lists are the index's regime cursors.
  const auto members = [&](energy::Regime r) {
    std::vector<ServerId> out;
    for (auto id = leader.next_in_regime(r, std::nullopt); id.has_value();
         id = leader.next_in_regime(r, id)) {
      out.push_back(*id);
    }
    return out;
  };
  EXPECT_EQ(members(energy::Regime::kR1UndesirableLow),
            std::vector<ServerId>{ServerId{0}});
  EXPECT_EQ(members(energy::Regime::kR2SuboptimalLow),
            std::vector<ServerId>{ServerId{1}});
  EXPECT_EQ(members(energy::Regime::kR5UndesirableHigh),
            std::vector<ServerId>{ServerId{4}});
}

TEST(Leader, WakeCandidatePrefersShallowestSleep) {
  auto servers = make_servers({0.0, 0.0, 0.3});
  servers[0].begin_sleep(energy::CState::kC6, Seconds{0.0});
  servers[1].begin_sleep(energy::CState::kC3, Seconds{0.0});
  for (auto& s : servers) s.settle(Seconds{100.0});
  const RegimeIndex leader(servers);
  const auto candidate = leader.pick_wake_candidate();
  ASSERT_TRUE(candidate.has_value());
  EXPECT_EQ(*candidate, ServerId{1});  // C3 wakes faster than C6
}

TEST(Leader, NoWakeCandidateWhenAllAwake) {
  auto servers = make_servers({0.3, 0.4});
  const RegimeIndex leader(servers);
  EXPECT_FALSE(leader.pick_wake_candidate().has_value());
}

TEST(Leader, WakeSkipsInFlightTransitions) {
  auto servers = make_servers({0.0});
  servers[0].begin_sleep(energy::CState::kC6, Seconds{0.0});
  // Entry latency of C6 is 5 s; at t = 1 s the transition is in flight.
  servers[0].settle(Seconds{1.0});
  const RegimeIndex leader(servers);
  EXPECT_FALSE(leader.pick_wake_candidate().has_value());
}

TEST(Leader, SleepStateSixtyPercentRule) {
  // Section 6: above 60 % cluster load use C3, below use C6.
  EXPECT_EQ(Leader::choose_sleep_state(0.7), energy::CState::kC3);
  EXPECT_EQ(Leader::choose_sleep_state(0.61), energy::CState::kC3);
  EXPECT_EQ(Leader::choose_sleep_state(0.59), energy::CState::kC6);
  EXPECT_EQ(Leader::choose_sleep_state(0.3), energy::CState::kC6);
}

TEST(Leader, SleepStateCustomThreshold) {
  EXPECT_EQ(Leader::choose_sleep_state(0.5, 0.4), energy::CState::kC3);
  EXPECT_EQ(Leader::choose_sleep_state(0.3, 0.4), energy::CState::kC6);
}

}  // namespace
}  // namespace eclb::cluster
