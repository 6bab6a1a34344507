// shed_overloaded's VM pick against the sorted walk it replaced.
//
// protocol::pick_shed_vm scans the roster for the largest demand below the
// shed phase's bar instead of sorting it; on a tie it falls back to the
// sort.  The oracle (tests/support/shed_oracle.h) is the sorted walk kept
// verbatim.  Both must move the same VM, ask the leader about the same
// demands in the same order (bit for bit, -0.0 included) and leave the same
// bar.  Rosters straddle the 16-element cutoff below which std::sort runs a
// stable insertion sort, and draw demands from a small palette so that ties
// -- where the unstable sort's order decides the pick -- are common.
#include "cluster/protocol/shed_pick.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include "support/shed_oracle.h"

namespace eclb::cluster::protocol {
namespace {

using common::AppId;
using common::ServerId;
using common::VmId;

/// A leader that finds a home for any demand at or below `limit` and
/// records every demand it is asked about, as raw bits.
struct StubLeader {
  double limit{0.0};
  std::vector<std::uint64_t> asked;

  std::optional<ServerId> operator()(double demand) {
    asked.push_back(std::bit_cast<std::uint64_t>(demand));
    if (demand > limit) return std::nullopt;
    // The target depends on the demand, so a wrong target shows too.
    return ServerId{static_cast<std::uint64_t>(1000.0 * demand) + 1};
  }
};

std::vector<vm::Vm> roster_of(std::initializer_list<double> demands) {
  std::vector<vm::Vm> roster;
  for (const double d : demands) {
    const auto i = static_cast<std::uint64_t>(roster.size());
    roster.emplace_back(VmId{i}, AppId{i}, d);
  }
  return roster;
}

TEST(ShedPick, MovesTheLargestDemandBelowTheBarThatHasAHome) {
  const std::vector<vm::Vm> roster = roster_of({0.2, 0.6, 0.4, 0.9, 0.1});
  double bar = 0.9;  // an earlier miss at 0.9 rules VM 3 out
  StubLeader leader{0.45, {}};
  const ShedPick pick = pick_shed_vm(roster, bar, leader);
  ASSERT_NE(pick.vm, nullptr);
  EXPECT_EQ(pick.vm->id(), VmId{2});
  EXPECT_EQ(pick.target, ServerId{401});
  EXPECT_EQ(bar, 0.6);  // lowered to the one miss
  EXPECT_EQ(leader.asked, (std::vector<std::uint64_t>{
                              std::bit_cast<std::uint64_t>(0.6),
                              std::bit_cast<std::uint64_t>(0.4)}));
}

TEST(ShedPick, NoHomeForAnyDemandLowersTheBarToTheSmallest) {
  const std::vector<vm::Vm> roster = roster_of({0.3, 0.0, 0.7});
  double bar = std::numeric_limits<double>::infinity();
  StubLeader leader{-1.0, {}};
  const ShedPick pick = pick_shed_vm(roster, bar, leader);
  EXPECT_EQ(pick.vm, nullptr);
  EXPECT_EQ(bar, 0.0);
  EXPECT_EQ(leader.asked.size(), 3U);
}

TEST(ShedPick, EmptyRosterAsksNothing) {
  double bar = 0.5;
  StubLeader leader{1.0, {}};
  EXPECT_EQ(pick_shed_vm(std::span<const vm::Vm>{}, bar, leader).vm, nullptr);
  EXPECT_TRUE(leader.asked.empty());
  EXPECT_EQ(bar, 0.5);
}

TEST(ShedPick, MatchesTheSortedWalkOnRandomRosters) {
  // 0.0 and -0.0 compare equal (a tie) but differ in the bits the leader is
  // asked about; 0 and 1 are the bounds Vm::set_demand clamps to.
  constexpr double kPalette[] = {0.0, -0.0, 1.0, 0.05, 0.1, 0.25, 0.5, 0.75};
  std::mt19937_64 rng(0x51ED'0001ULL);
  std::uniform_int_distribution<int> coin(0, 1);

  int picks = 0;
  int misses = 0;
  int large_tied_picks = 0;  // ties in a roster past the insertion-sort cutoff
  int sort_order_picks = 0;  // tied picks that are not the roster-first VM
  int negative_zero_asks = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    // Half the rosters sit around the 16-element cutoff, half span 1..200.
    const std::size_t n =
        coin(rng) == 0 ? 1 + rng() % 40 : 1 + rng() % 200;
    const std::size_t palette = 1 + rng() % std::size(kPalette);
    std::vector<vm::Vm> roster;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::uint64_t>(i);
      roster.emplace_back(VmId{id}, AppId{id}, kPalette[rng() % palette]);
    }
    double bar = coin(rng) == 0 ? std::numeric_limits<double>::infinity()
                                : kPalette[rng() % std::size(kPalette)];
    double oracle_bar = bar;

    // Shed until nothing moves, as shed_overloaded does on one host.
    while (!roster.empty()) {
      const double limit =
          rng() % 8 == 0 ? -1.0 : kPalette[rng() % std::size(kPalette)];
      StubLeader leader{limit, {}};
      StubLeader oracle_leader{limit, {}};
      const ShedPick pick = pick_shed_vm(roster, bar, leader);
      const ShedPick want =
          test_support::sorted_shed_pick(roster, oracle_bar, oracle_leader);

      ASSERT_EQ(pick.vm == nullptr, want.vm == nullptr) << "trial " << trial;
      ASSERT_EQ(leader.asked, oracle_leader.asked) << "trial " << trial;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(bar),
                std::bit_cast<std::uint64_t>(oracle_bar))
          << "trial " << trial;
      for (const std::uint64_t bits : leader.asked) {
        if (bits == std::bit_cast<std::uint64_t>(-0.0)) ++negative_zero_asks;
      }
      if (want.vm == nullptr) {
        ++misses;
        break;
      }
      ASSERT_EQ(pick.vm->id(), want.vm->id()) << "trial " << trial;
      ASSERT_EQ(pick.target, want.target) << "trial " << trial;
      ++picks;

      const vm::Vm* first_tied = nullptr;
      int tied = 0;
      for (const vm::Vm& v : roster) {
        if (v.demand() != want.vm->demand()) continue;
        if (first_tied == nullptr) first_tied = &v;
        ++tied;
      }
      if (tied > 1 && roster.size() > 16) ++large_tied_picks;
      if (first_tied != want.vm) ++sort_order_picks;
      roster.erase(roster.begin() + (want.vm - roster.data()));
    }
  }
  // The cases that make the fallback necessary must actually occur.
  EXPECT_GT(picks, 10000);
  EXPECT_GT(misses, 1000);
  EXPECT_GT(large_tied_picks, 1000);
  EXPECT_GT(sort_order_picks, 100);
  EXPECT_GT(negative_zero_asks, 10);
}

}  // namespace
}  // namespace eclb::cluster::protocol
