// Equivalence suite for the incremental regime index (src/cluster/index).
//
// The index is the protocol's only query path, and its contract is
// *bit-identity* with plain full-fleet scans: every aggregate, cursor and
// placement search must reproduce the scan answer exactly, under arbitrary
// interleavings of protocol rounds, crashes, recoveries, derates and
// injected VMs.  Three layers of checking:
//   1. self_check(): the index audits itself against a freshly rebuilt index
//      over the same servers (catches stale incremental state).
//   2. The scan oracle (tests/support/scan_oracle.h): every search, wake
//      pick and cursor walk is recomputed by an O(N) scan and compared.
//   3. Pinned full runs: the folded report digests of fault-free and
//      faulted runs, captured while the scan path still ran in production
//      and both paths were proven to emit identical reports.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/index/regime_index.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "policy/placement.h"
#include "support/scan_oracle.h"

namespace eclb::cluster {
namespace {

using common::Seconds;
using common::ServerId;
namespace oracle = test_support;

ClusterConfig base_config(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.server_count = 60;
  cfg.initial_load_min = 0.2;
  cfg.initial_load_max = 0.4;
  cfg.seed = seed;
  return cfg;
}

/// Applies a deterministic churn step `round` to `c`: crash, recover,
/// derate or inject, cycling over the fleet.
void churn(Cluster& c, int round) {
  const auto n = static_cast<std::uint32_t>(c.size());
  const ServerId victim{static_cast<std::uint32_t>((round * 7 + 3) % n)};
  switch (round % 4) {
    case 0: c.crash_server(victim); break;
    case 1: c.recover_server(victim); break;
    case 2: c.derate_server(victim, 0.5 + 0.1 * (round % 5)); break;
    default:
      if (!c.servers()[victim.value].failed()) {
        c.inject_vm(victim, common::AppId{static_cast<std::uint32_t>(9000 + round)},
                    0.05);
      }
      break;
  }
}

/// Folds the end-of-run totals into a run digest.
void fold_totals(std::uint64_t& h, const Cluster& c) {
  oracle::fold_digest(h, std::bit_cast<std::uint64_t>(c.total_demand()));
  oracle::fold_digest(h, std::bit_cast<std::uint64_t>(c.total_energy().value));
  oracle::fold_digest(h, c.total_vms());
  oracle::fold_digest(h, c.message_stats().total());
}

TEST(RegimeIndex, InstalledUnconditionally) {
  for (const auto strategy :
       {PlacementStrategy::kEnergyAware, PlacementStrategy::kLeastLoaded,
        PlacementStrategy::kRandom, PlacementStrategy::kRoundRobin}) {
    ClusterConfig cfg = base_config(1);
    cfg.placement = strategy;
    Cluster c(cfg);
    ASSERT_NE(c.regime_index(), nullptr) << policy::to_string(strategy);
    EXPECT_EQ(c.regime_index()->self_check(), std::nullopt);
  }
}

TEST(RegimeIndex, SelfCheckPassesAfterConstruction) {
  Cluster c(base_config(2));
  ASSERT_NE(c.regime_index(), nullptr);
  const auto err = c.regime_index()->self_check();
  EXPECT_FALSE(err.has_value()) << *err;
}

TEST(RegimeIndex, SelfCheckPassesUnderRandomizedChurn) {
  for (std::uint64_t seed : {3u, 11u, 42u}) {
    Cluster c(base_config(seed));
    ASSERT_NE(c.regime_index(), nullptr);
    for (int round = 0; round < 24; ++round) {
      c.step();
      churn(c, round);
      const auto err = c.regime_index()->self_check();
      ASSERT_FALSE(err.has_value())
          << "seed " << seed << " round " << round << ": " << *err;
    }
  }
}

TEST(RegimeIndex, AggregatesMatchNaiveScans) {
  Cluster c(base_config(5));
  ASSERT_NE(c.regime_index(), nullptr);
  for (int round = 0; round < 16; ++round) {
    c.step();
    churn(c, round);
    const auto& idx = *c.regime_index();
    const auto now = c.now();

    std::size_t vms = 0, sleeping = 0, parked = 0, deep = 0, reporters = 0;
    energy::RegimeHistogram hist{};
    for (const auto& s : c.servers()) {
      vms += s.vm_count();
      if (!s.failed() && !s.awake(now)) ++sleeping;
      const auto cs = s.effective_cstate();
      if (cs == energy::CState::kC1) ++parked;
      if (cs == energy::CState::kC3 || cs == energy::CState::kC6) ++deep;
      if (s.awake(now)) {
        const auto r = s.regime();
        if (r.has_value()) ++hist[energy::regime_index(*r)];
      }
      // The j_k fan-in counts every server whose regime is *defined*,
      // including hosts still settling into sleep.
      const auto r = s.regime();
      if (r.has_value() && *r != energy::Regime::kR3Optimal) ++reporters;
    }
    EXPECT_EQ(idx.total_vms(), vms);
    EXPECT_EQ(idx.sleeping_count(), sleeping);
    EXPECT_EQ(idx.parked_count(), parked);
    EXPECT_EQ(idx.deep_sleeping_count(), deep);
    EXPECT_EQ(idx.regime_reporter_count(), reporters);
    EXPECT_EQ(idx.regime_histogram(), hist);
  }
}

TEST(RegimeIndex, PlacementSearchesMatchLegacyScans) {
  Cluster c(base_config(7));
  ASSERT_NE(c.regime_index(), nullptr);
  for (int round = 0; round < 16; ++round) {
    c.step();
    churn(c, round);
    const auto& idx = *c.regime_index();
    const auto servers = c.servers();
    const auto now = c.now();

    for (double demand : {0.01, 0.08, 0.2, 0.45}) {
      for (std::uint32_t ex : {0u, 5u, 31u}) {
        const ServerId exclude{ex};
        for (auto tier : {policy::PlacementTier::kLowRegimesOnly,
                          policy::PlacementTier::kStayOptimal,
                          policy::PlacementTier::kStaySuboptimal}) {
          EXPECT_EQ(idx.find_tiered_target(demand, exclude, tier),
                    oracle::find_tiered_target(servers, now, demand, exclude, tier))
              << "round " << round << " demand " << demand << " ex " << ex;
        }
        EXPECT_EQ(idx.find_below_center_target(demand, exclude),
                  oracle::find_below_center_target(servers, now, demand, exclude))
            << "round " << round << " demand " << demand << " ex " << ex;
      }
    }
    EXPECT_EQ(idx.pick_wake_candidate(), oracle::pick_wake_candidate(servers, now));
  }
}

TEST(RegimeIndex, DrainSearchMatchesLegacyScan) {
  Cluster c(base_config(9));
  ASSERT_NE(c.regime_index(), nullptr);
  std::size_t compared = 0;
  for (int round = 0; round < 16; ++round) {
    c.step();
    const auto servers = c.servers();
    const auto now = c.now();
    for (const auto& donor : servers) {
      if (!donor.awake(now) || donor.vms().empty()) continue;
      const double demand = donor.vms().front().demand();
      EXPECT_EQ(c.regime_index()->find_drain_target(donor, demand),
                oracle::find_drain_target(servers, now, donor, demand))
          << "round " << round << " donor " << donor.id().value;
      ++compared;
    }
  }
  EXPECT_GT(compared, 100U);  // the oracle actually exercised real donors
}

/// One indexed run: after every interval the index must pass self_check and
/// agree with the scan oracle; the folded report digests must match the
/// value pinned for it.
template <class Setup>
std::uint64_t checked_run(std::uint64_t seed, std::size_t intervals,
                          const Setup& setup) {
  Cluster c(base_config(seed));
  [[maybe_unused]] const auto attachment = setup(c);
  std::uint64_t h = oracle::kDigestSeed;
  for (std::size_t i = 0; i < intervals; ++i) {
    oracle::fold_digest(h, oracle::report_digest(c.step()));
    const auto stale = c.regime_index()->self_check();
    EXPECT_FALSE(stale.has_value()) << "interval " << i << ": " << *stale;
    const auto diverged = oracle::query_mismatch(c);
    EXPECT_FALSE(diverged.has_value()) << "interval " << i << ": " << *diverged;
  }
  fold_totals(h, c);
  return h;
}

TEST(RegimeIndex, FullRunBitIdenticalToLegacyScans) {
  // Pinned when the legacy full-scan path still ran in production and the
  // two paths produced identical reports for these seeds.
  constexpr std::uint64_t kPinned[][2] = {{13, 0xc6487890069db19fULL},
                                          {99, 0x3c0933e643bd942fULL}};
  for (const auto& [seed, pinned] : kPinned) {
    const std::uint64_t digest =
        checked_run(seed, 80, [](Cluster&) { return 0; });
    EXPECT_EQ(digest, pinned) << "seed " << seed << " digest 0x" << std::hex
                              << digest;
  }
}

fault::FaultPlan stress_plan() {
  fault::FaultPlan plan;
  plan.crash(Seconds{90.0}, ServerId{4});
  plan.crash(Seconds{150.0}, ServerId{17});
  plan.crash_leader(Seconds{210.0});
  plan.recover(Seconds{400.0}, ServerId{4});
  plan.derate(Seconds{450.0}, ServerId{23}, 0.6);
  plan.link_loss(Seconds{500.0}, 0.2);
  plan.migration_failure_rate(Seconds{560.0}, 0.3);
  plan.link_delay(Seconds{620.0}, Seconds{0.05});
  return plan;
}

TEST(RegimeIndex, FullRunBitIdenticalToLegacyScansUnderFaultPlan) {
  constexpr std::uint64_t kPinned = 0x7b1b753d0014c5c1ULL;
  const std::uint64_t digest = checked_run(21, 40, [](Cluster& c) {
    return std::make_unique<fault::FaultInjector>(c, stress_plan());
  });
  EXPECT_EQ(digest, kPinned) << "digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace eclb::cluster
