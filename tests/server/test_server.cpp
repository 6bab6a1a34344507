#include "server/server.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cluster/index/regime_index.h"

namespace eclb::server {
namespace {

using common::AppId;
using common::Seconds;
using common::ServerId;
using common::VmId;
using common::Watts;

ServerConfig make_config() {
  ServerConfig cfg;
  cfg.thresholds.alpha_sopt_low = 0.22;
  cfg.thresholds.alpha_opt_low = 0.35;
  cfg.thresholds.alpha_opt_high = 0.70;
  cfg.thresholds.alpha_sopt_high = 0.82;
  cfg.power_model = std::make_shared<energy::LinearPowerModel>(Watts{200.0}, 0.5);
  return cfg;
}

Server make_server(std::uint32_t id = 0) {
  return Server(ServerId{id}, make_config());
}

vm::Vm make_vm(std::uint32_t id, double demand) {
  return vm::Vm(VmId{id}, AppId{id}, demand);
}

TEST(Server, StartsEmptyAwakeIdle) {
  Server s = make_server();
  EXPECT_DOUBLE_EQ(s.load(), 0.0);
  EXPECT_EQ(s.vm_count(), 0U);
  EXPECT_TRUE(s.awake(Seconds{0.0}));
  EXPECT_EQ(s.cstate(), energy::CState::kC0);
  ASSERT_TRUE(s.regime().has_value());
  EXPECT_EQ(*s.regime(), energy::Regime::kR1UndesirableLow);
  EXPECT_DOUBLE_EQ(s.power(Seconds{0.0}).value, 100.0);  // idle = 50 % of 200 W
}

TEST(Server, PlaceAccumulatesLoad) {
  Server s = make_server();
  EXPECT_TRUE(s.place(make_vm(1, 0.3)));
  EXPECT_TRUE(s.place(make_vm(2, 0.2)));
  EXPECT_DOUBLE_EQ(s.load(), 0.5);
  EXPECT_EQ(s.vm_count(), 2U);
  EXPECT_EQ(*s.regime(), energy::Regime::kR3Optimal);
}

TEST(Server, PlaceRejectsOverCapacity) {
  Server s = make_server();
  EXPECT_TRUE(s.place(make_vm(1, 0.7)));
  EXPECT_FALSE(s.place(make_vm(2, 0.4)));
  EXPECT_EQ(s.vm_count(), 1U);
}

TEST(Server, ForcePlaceMayOversubscribe) {
  Server s = make_server();
  s.force_place(make_vm(1, 0.7));
  s.force_place(make_vm(2, 0.6));
  EXPECT_DOUBLE_EQ(s.load(), 1.3);
  EXPECT_DOUBLE_EQ(s.served_load(), 1.0);
  EXPECT_DOUBLE_EQ(s.overload(), 0.3);
}

TEST(Server, RemoveReturnsVm) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.3)));
  auto removed = s.remove(VmId{1});
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id(), VmId{1});
  EXPECT_DOUBLE_EQ(s.load(), 0.0);
  EXPECT_FALSE(s.remove(VmId{1}).has_value());
}

TEST(Server, FindLocatesHostedVm) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(5, 0.2)));
  ASSERT_NE(s.find(VmId{5}), nullptr);
  EXPECT_EQ(s.find(VmId{5})->demand(), 0.2);
  EXPECT_EQ(s.find(VmId{99}), nullptr);
}

TEST(Server, HeadroomCalculations) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.4)));
  EXPECT_DOUBLE_EQ(s.headroom(), 0.6);
  EXPECT_DOUBLE_EQ(s.headroom_to(0.7), 0.3);
  EXPECT_DOUBLE_EQ(s.headroom_to(0.3), 0.0);  // already above target
}

TEST(Server, VerticalScaleWithinCapacity) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.3)));
  EXPECT_TRUE(s.try_vertical_scale(VmId{1}, 0.5));
  EXPECT_DOUBLE_EQ(s.load(), 0.5);
}

TEST(Server, VerticalScaleRejectsOverCapacity) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.5)));
  ASSERT_TRUE(s.place(make_vm(2, 0.4)));
  EXPECT_FALSE(s.try_vertical_scale(VmId{1}, 0.7));
  EXPECT_DOUBLE_EQ(s.load(), 0.9);  // unchanged
}

TEST(Server, VerticalShrinkAlwaysSucceeds) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.9)));
  EXPECT_TRUE(s.try_vertical_scale(VmId{1}, 0.1));
  EXPECT_DOUBLE_EQ(s.load(), 0.1);
}

TEST(Server, VerticalScaleUnknownVmFails) {
  Server s = make_server();
  EXPECT_FALSE(s.try_vertical_scale(VmId{42}, 0.5));
}

TEST(Server, ForceDemandOversubscribes) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.5)));
  EXPECT_TRUE(s.force_demand(VmId{1}, 0.9));
  ASSERT_TRUE(s.place(make_vm(2, 0.1)));
  EXPECT_TRUE(s.force_demand(VmId{2}, 0.5));
  EXPECT_GT(s.load(), 1.0);
}

TEST(Server, RegimeTracksLoad) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.1)));
  EXPECT_EQ(*s.regime(), energy::Regime::kR1UndesirableLow);
  EXPECT_TRUE(s.try_vertical_scale(VmId{1}, 0.3));
  EXPECT_EQ(*s.regime(), energy::Regime::kR2SuboptimalLow);
  EXPECT_TRUE(s.try_vertical_scale(VmId{1}, 0.5));
  EXPECT_EQ(*s.regime(), energy::Regime::kR3Optimal);
  EXPECT_TRUE(s.try_vertical_scale(VmId{1}, 0.75));
  EXPECT_EQ(*s.regime(), energy::Regime::kR4SuboptimalHigh);
  EXPECT_TRUE(s.try_vertical_scale(VmId{1}, 0.9));
  EXPECT_EQ(*s.regime(), energy::Regime::kR5UndesirableHigh);
}

TEST(Server, SleepWakeCycle) {
  Server s = make_server();
  const Seconds asleep_at = s.begin_sleep(energy::CState::kC3, Seconds{10.0});
  EXPECT_GT(asleep_at.value, 10.0);
  EXPECT_FALSE(s.awake(Seconds{10.5}));
  s.settle(asleep_at);
  EXPECT_EQ(s.cstate(), energy::CState::kC3);
  ASSERT_FALSE(s.regime().has_value());  // asleep servers have no regime

  const Seconds awake_at = s.begin_wake(asleep_at);
  EXPECT_DOUBLE_EQ(awake_at.value - asleep_at.value, 30.0);  // C3 wake latency
  EXPECT_FALSE(s.awake(awake_at - Seconds{1.0}));
  s.settle(awake_at);
  EXPECT_TRUE(s.awake(awake_at));
}

TEST(Server, PlaceRejectedWhileAsleep) {
  Server s = make_server();
  s.begin_sleep(energy::CState::kC6, Seconds{0.0});
  s.settle(Seconds{100.0});
  EXPECT_FALSE(s.place(make_vm(1, 0.1)));
}

TEST(Server, SleepPowerIsHoldFraction) {
  Server s = make_server();
  s.begin_sleep(energy::CState::kC6, Seconds{0.0});
  s.settle(Seconds{100.0});
  EXPECT_DOUBLE_EQ(s.power(Seconds{100.0}).value, 0.01 * 200.0);
}

TEST(Server, WakePowerNearPeakDuringTransition) {
  Server s = make_server();
  s.begin_sleep(energy::CState::kC3, Seconds{0.0});
  s.settle(Seconds{10.0});
  s.begin_wake(Seconds{10.0});
  EXPECT_DOUBLE_EQ(s.power(Seconds{20.0}).value, 0.95 * 200.0);
}

TEST(Server, EnergyIntegratesIdlePower) {
  Server s = make_server();
  s.update_energy(Seconds{100.0});
  // 100 s at 100 W idle.
  EXPECT_NEAR(s.energy_used().value, 10000.0, 1e-6);
}

TEST(Server, EnergyReflectsLoadChanges) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 1.0)));
  s.update_energy(Seconds{0.0});  // re-sample at full load
  s.update_energy(Seconds{10.0});
  // 10 s at 200 W peak.
  EXPECT_NEAR(s.energy_used().value, 2000.0, 1e-6);
}

TEST(Server, EnergyAcrossSleepCycle) {
  Server s = make_server();
  s.update_energy(Seconds{10.0});          // 10 s idle at 100 W = 1000 J
  s.begin_sleep(energy::CState::kC3, Seconds{10.0});
  s.settle(Seconds{11.0});
  s.update_energy(Seconds{11.0});          // 1 s entry at idle = 100 J
  s.update_energy(Seconds{111.0});         // 100 s hold at 10 W = 1000 J
  EXPECT_NEAR(s.energy_used().value, 1000.0 + 100.0 + 1000.0, 1e-6);
}

TEST(Server, ChargeEnergyAddsLumpSum) {
  Server s = make_server();
  s.charge_energy(common::Joules{55.0});
  EXPECT_DOUBLE_EQ(s.energy_used().value, 55.0);
}

/// A fleet of four hosts watched by a regime index: an ordinary mix, an
/// oversubscribed host, a sleeping host with VMs force-placed on it, and a
/// host whose demands all go to zero.
struct WriteBackFleet {
  std::vector<Server> servers;
  std::unique_ptr<cluster::index::RegimeIndex> index;

  WriteBackFleet() {
    const std::vector<std::vector<double>> rosters = {
        {0.1, 0.2, 0.15}, {0.6, 0.5, 0.3}, {0.2, 0.1}, {0.3, 0.2}};
    servers.reserve(rosters.size());
    std::uint32_t vm_id = 0;
    for (std::uint32_t i = 0; i < rosters.size(); ++i) {
      servers.push_back(make_server(i));
      if (i == 2) {
        servers[i].begin_sleep(energy::CState::kC3, Seconds{0.0});
        servers[i].settle(Seconds{100.0});
      }
      for (const double d : rosters[i]) servers[i].force_place(make_vm(vm_id++, d));
    }
    index = std::make_unique<cluster::index::RegimeIndex>(
        std::span<const Server>(servers));
    for (Server& s : servers) s.set_state_listener(index.get());
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The index's id-ordered cursor over one regime, walked to the end.
std::vector<std::uint32_t> regime_walk(const cluster::index::RegimeIndex& index,
                                       energy::Regime regime) {
  std::vector<std::uint32_t> ids;
  for (auto at = index.next_in_regime(regime, std::nullopt); at.has_value();
       at = index.next_in_regime(regime, at)) {
    ids.push_back(at->value);
  }
  return ids;
}

TEST(Server, ForceDemandsMatchesPerVmForceDemand) {
  WriteBackFleet batched;
  WriteBackFleet per_vm;
  ASSERT_TRUE(batched.servers[2].asleep(Seconds{100.0}));
  // Two write-backs, the first with demands the [0, 1] clamp cuts and the
  // second leaving host 1 oversubscribed and host 3 at all-zero demand.
  const std::vector<std::vector<std::vector<double>>> rounds = {
      {{0.4, 1.5, -0.25}, {0.9, 0.7, 0.3}, {0.05, 0.6}, {0.1, 0.7}},
      {{0.35, 0.05, 0.2}, {0.5, 0.45, 0.4}, {0.3, 0.3}, {0.0, -0.0}}};
  for (const auto& demands : rounds) {
    for (std::size_t i = 0; i < demands.size(); ++i) {
      batched.servers[i].force_demands(demands[i]);
      Server& s = per_vm.servers[i];
      for (std::size_t j = 0; j < demands[i].size(); ++j) {
        ASSERT_TRUE(s.force_demand(s.vms()[j].id(), demands[i][j]));
      }
    }
    for (std::size_t i = 0; i < demands.size(); ++i) {
      const Server& a = batched.servers[i];
      const Server& b = per_vm.servers[i];
      SCOPED_TRACE("host " + std::to_string(i));
      ASSERT_EQ(a.vm_count(), b.vm_count());
      for (std::size_t j = 0; j < a.vm_count(); ++j) {
        EXPECT_EQ(bits(a.vms()[j].demand()), bits(b.vms()[j].demand()));
      }
      const ServerStateTable& ta = a.state_table();
      const ServerStateTable& tb = b.state_table();
      const ServerSlot sa = a.slot();
      const ServerSlot sb = b.slot();
      EXPECT_EQ(bits(ta.load(sa)), bits(tb.load(sb)));
      EXPECT_EQ(bits(ta.static_power(sa)), bits(tb.static_power(sb)));
      EXPECT_EQ(ta.vm_count(sa), tb.vm_count(sb));
      EXPECT_EQ(ta.awake(sa), tb.awake(sb));
      EXPECT_EQ(ta.transition_pending(sa), tb.transition_pending(sb));
      EXPECT_EQ(ta.cstate_src(sa), tb.cstate_src(sb));
      EXPECT_EQ(ta.effective_cstate(sa), tb.effective_cstate(sb));
      EXPECT_EQ(ta.regime(sa), tb.regime(sb));
      EXPECT_EQ(ta.classified(sa), tb.classified(sb));
      EXPECT_EQ(ta.sleep_depth(sa), tb.sleep_depth(sb));
      EXPECT_TRUE(ta.index_row(sa) == tb.index_row(sb));
      EXPECT_EQ(bits(ta.index_row(sa).load), bits(tb.index_row(sb).load));
    }
    EXPECT_GT(batched.servers[1].load(), 1.0);

    batched.index->flush();
    per_vm.index->flush();
    const cluster::index::RegimeIndex& x = *batched.index;
    const cluster::index::RegimeIndex& y = *per_vm.index;
    EXPECT_EQ(x.self_check(), std::nullopt);
    EXPECT_EQ(y.self_check(), std::nullopt);
    EXPECT_EQ(x.total_vms(), y.total_vms());
    EXPECT_EQ(x.sleeping_count(), y.sleeping_count());
    EXPECT_EQ(x.regime_histogram(), y.regime_histogram());
    for (int r = 1; r <= static_cast<int>(energy::kRegimeCount); ++r) {
      const auto regime = static_cast<energy::Regime>(r);
      EXPECT_EQ(regime_walk(x, regime), regime_walk(y, regime));
    }
    for (const double demand : {0.05, 0.2, 0.5}) {
      EXPECT_EQ(x.find_tiered_target(demand, ServerId{0},
                                     policy::PlacementTier::kStayOptimal),
                y.find_tiered_target(demand, ServerId{0},
                                     policy::PlacementTier::kStayOptimal));
    }
  }
}

TEST(ServerDeathTest, SleepWithVmsAborts) {
  Server s = make_server();
  ASSERT_TRUE(s.place(make_vm(1, 0.2)));
  EXPECT_DEATH(s.begin_sleep(energy::CState::kC3, Seconds{0.0}),
               "still hosts VMs");
}

TEST(ServerDeathTest, WakeWhileAwakeAborts) {
  Server s = make_server();
  EXPECT_DEATH(s.begin_wake(Seconds{0.0}), "already awake");
}

TEST(ServerDeathTest, MissingPowerModelAborts) {
  ServerConfig cfg = make_config();
  cfg.power_model = nullptr;
  EXPECT_DEATH(Server(ServerId{0}, cfg), "power model required");
}

}  // namespace
}  // namespace eclb::server
