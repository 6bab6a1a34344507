// Mutate-and-compare suite for the SoA server state table.
//
// The table's contract is that every derived column equals what the Server
// accessors report, at every quiescent point (between mutations).  Two
// layers exercise it:
//   1. A standalone Server driven by a randomized op sequence (place,
//      remove, resize, sleep/wake/settle, fail/repair), checking the row
//      after every op.
//   2. A full Cluster sharing one table across the fleet, run through
//      protocol rounds with crash/recover/derate churn, a network partition
//      with shadow restarts, and the heal -- checking every row against
//      every server after each round.
#include "server/state_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "energy/regimes.h"
#include "server/server.h"

namespace eclb::server {
namespace {

using common::Seconds;
using common::ServerId;
using common::VmId;
using common::Watts;

/// The row must agree with the accessors exactly (bitwise for doubles): the
/// protocol's fleet sweeps read the columns, and the regime index reads the
/// packed IndexRow, in place of the accessors; any divergence breaks the
/// bit-identity contract.
void expect_row_matches(const Server& s, Seconds now) {
  const ServerStateTable& t = s.state_table();
  const ServerSlot i = s.slot();
  EXPECT_EQ(t.load(i), s.load());
  EXPECT_EQ(t.capacity(i), s.capacity());
  EXPECT_EQ(t.vm_count(i), s.vm_count());
  EXPECT_EQ(t.alive(i), !s.failed());
  EXPECT_EQ(t.awake(i), s.awake(now));
  EXPECT_EQ(t.transition_pending(i), s.transition_pending());

  const ServerStateTable::IndexRow& row = t.index_row(i);
  EXPECT_EQ(row.load, s.load());
  EXPECT_EQ(row.vm_count, s.vm_count());
  EXPECT_EQ(row.alive != 0, !s.failed());
  EXPECT_EQ(row.awake != 0, s.awake(now));
  EXPECT_EQ(row.cstate_src, static_cast<std::uint8_t>(s.cstate()));
  EXPECT_EQ(row.effective, static_cast<std::uint8_t>(s.effective_cstate()));
  EXPECT_EQ(row.center, s.thresholds().optimal_center());

  // classified: always-valid regime of the served load.
  const auto cls = s.thresholds().classify(s.served_load());
  EXPECT_EQ(row.classified,
            static_cast<std::int8_t>(energy::regime_index(cls)));

  // regime: defined only while fully awake.
  if (s.awake(now)) {
    ASSERT_TRUE(s.regime().has_value());
    EXPECT_EQ(row.regime,
              static_cast<std::int8_t>(energy::regime_index(*s.regime())));
  } else {
    EXPECT_EQ(row.regime, ServerStateTable::kNone);
  }

  // sleep depth: settled C1/C3/C6 on an alive server, else none.
  if (!s.failed() && !s.transition_pending() &&
      s.cstate() != energy::CState::kC0) {
    EXPECT_EQ(row.sleep_depth,
              static_cast<std::int8_t>(static_cast<int>(s.cstate()) - 1));
  } else {
    EXPECT_EQ(row.sleep_depth, ServerStateTable::kNone);
  }

  // static power: the time-independent power level while no transition is
  // in flight (the fleet energy sweep advances meters from this column).
  if (!s.transition_pending()) {
    EXPECT_EQ(t.static_power(i), s.power(now).value);
  }
}

ServerConfig make_config() {
  ServerConfig cfg;
  cfg.thresholds.alpha_sopt_low = 0.25;
  cfg.thresholds.alpha_opt_low = 0.40;
  cfg.thresholds.alpha_opt_high = 0.70;
  cfg.thresholds.alpha_sopt_high = 0.85;
  cfg.power_model =
      std::make_shared<energy::LinearPowerModel>(Watts{200.0}, 0.5);
  return cfg;
}

TEST(ServerStateTable, SlotDefaultsAndMemoryAccounting) {
  ServerStateTable t;
  EXPECT_EQ(t.size(), 0U);
  const ServerSlot a = t.add_slot();
  const ServerSlot b = t.add_slot();
  EXPECT_EQ(a, 0U);
  EXPECT_EQ(b, 1U);
  EXPECT_EQ(t.size(), 2U);
  EXPECT_TRUE(t.alive(a));
  EXPECT_TRUE(t.awake(a));
  EXPECT_EQ(t.capacity(a), 1.0);
  EXPECT_EQ(t.load(a), 0.0);
  EXPECT_GT(t.memory_bytes(), 0U);
}

TEST(ServerStateTable, ServerConstructionFillsRow) {
  ServerStateTable table;
  table.reserve(2);
  Server s0(ServerId{0}, make_config(), &table);
  Server s1(ServerId{1}, make_config(), &table);
  EXPECT_EQ(table.size(), 2U);
  EXPECT_EQ(s0.slot(), 0U);
  EXPECT_EQ(s1.slot(), 1U);
  expect_row_matches(s0, Seconds{0.0});
  expect_row_matches(s1, Seconds{0.0});
}

TEST(ServerStateTable, RandomizedMutateAndCompareStandalone) {
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    Server s(ServerId{0}, make_config());
    common::Rng rng(seed);
    Seconds now{0.0};
    std::vector<VmId> hosted;
    std::uint32_t next_vm = 1;

    for (int op = 0; op < 400; ++op) {
      now = now + Seconds{rng.uniform(0.1, 30.0)};
      switch (static_cast<int>(rng.uniform(0.0, 8.0))) {
        case 0: {  // place
          vm::Vm v(VmId{next_vm}, common::AppId{next_vm},
                   rng.uniform(0.02, 0.3));
          ++next_vm;
          const VmId id = v.id();
          if (s.awake(now) && s.place(std::move(v))) hosted.push_back(id);
          break;
        }
        case 1: {  // remove
          if (!hosted.empty()) {
            const std::size_t k = static_cast<std::size_t>(
                rng.uniform(0.0, static_cast<double>(hosted.size())));
            if (s.remove(hosted[k]).has_value()) {
              hosted.erase(hosted.begin() + static_cast<std::ptrdiff_t>(k));
            }
          }
          break;
        }
        case 2: {  // resize (shrink or grow)
          if (!hosted.empty()) {
            const std::size_t k = static_cast<std::size_t>(
                rng.uniform(0.0, static_cast<double>(hosted.size())));
            (void)s.force_demand(hosted[k], rng.uniform(0.01, 0.4));
          }
          break;
        }
        case 3: {  // begin sleep (requires awake + empty per protocol; the
                   // server itself only requires settled C0)
          if (s.awake(now) && hosted.empty()) {
            const auto target =
                rng.uniform01() < 0.5 ? energy::CState::kC1 : energy::CState::kC6;
            now = s.begin_sleep(target, now);
            s.settle(now);
          }
          break;
        }
        case 4: {  // wake
          if (!s.failed() && !s.transition_pending() &&
              s.cstate() != energy::CState::kC0) {
            now = s.begin_wake(now);
            s.settle(now);
          }
          break;
        }
        case 5: {  // crash: VMs must be drained first (the cluster's rule)
          if (!s.failed() && !s.transition_pending()) {
            (void)s.take_all_vms();
            hosted.clear();
            s.fail(now);
          }
          break;
        }
        case 6: {  // recover
          if (s.failed()) s.repair(now);
          break;
        }
        default: {  // derate / restore capacity
          if (!s.failed()) s.set_capacity(rng.uniform(0.5, 1.0));
          break;
        }
      }
      expect_row_matches(s, now);
    }
  }
}

cluster::ClusterConfig cluster_config(std::uint64_t seed) {
  cluster::ClusterConfig cfg;
  cfg.server_count = 50;
  cfg.initial_load_min = 0.2;
  cfg.initial_load_max = 0.4;
  cfg.seed = seed;
  return cfg;
}

void expect_fleet_matches(const cluster::Cluster& c) {
  const auto now = c.now();
  const ServerStateTable& t = c.state_table();
  ASSERT_EQ(t.size(), c.servers().size());
  for (const Server& s : c.servers()) {
    SCOPED_TRACE("server " + std::to_string(s.id().index()));
    EXPECT_EQ(s.slot(), s.id().index());  // slot == id across the fleet
    expect_row_matches(s, now);
  }
}

TEST(ServerStateTable, ClusterChurnCrashRecoverDerate) {
  for (const std::uint64_t seed : {5u, 23u}) {
    cluster::Cluster c(cluster_config(seed));
    expect_fleet_matches(c);
    for (int round = 0; round < 16; ++round) {
      c.step();
      const ServerId victim{static_cast<std::uint32_t>((round * 7 + 3) % 50)};
      switch (round % 4) {
        case 0: c.crash_server(victim); break;
        case 1: c.recover_server(victim); break;
        case 2: c.derate_server(victim, 0.6 + 0.1 * (round % 4)); break;
        default:
          if (!c.servers()[victim.value].failed()) {
            c.inject_vm(victim,
                        common::AppId{static_cast<std::uint32_t>(900 + round)},
                        0.05);
          }
          break;
      }
      expect_fleet_matches(c);
    }
  }
}

TEST(ServerStateTable, ClusterPartitionShadowRestartAndHeal) {
  auto cfg = cluster_config(7);
  cfg.partition_shadow_restart = true;
  cluster::Cluster c(cfg);
  for (int round = 0; round < 4; ++round) c.step();
  expect_fleet_matches(c);

  // Split 0-24 | 25-49: the minority side runs degraded and the quorum
  // shadow-restarts applications stranded across the cut (the config flag
  // makes begin_partition run the shadow pass immediately).
  std::vector<std::int32_t> groups(50, 0);
  for (std::size_t i = 25; i < 50; ++i) groups[i] = 1;
  ASSERT_GE(c.begin_partition(groups), 0);
  expect_fleet_matches(c);
  for (int round = 0; round < 6; ++round) {
    c.step();
    expect_fleet_matches(c);
  }

  c.heal_partition();
  for (int round = 0; round < 6; ++round) {
    c.step();  // includes the reconciliation round (delta refresh path)
    expect_fleet_matches(c);
  }
}

}  // namespace
}  // namespace eclb::server
