// Side-filtered regime-index searches against the filtered scan oracle.
//
// While a fabric is partitioned the protocol confines every energy-aware
// query to one side.  With the cluster split three ways (interleaved by id,
// so every side is scattered across the key buckets), each filtered search
// -- every side, tier, demand and exclude of the oracle's grid, the drain
// search for every donor of that side, the wake pick -- must equal the
// filtered O(N) scan, round after round while the protocol keeps running.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/index/regime_index.h"
#include "policy/placement.h"
#include "support/scan_oracle.h"

namespace eclb::cluster {
namespace {

using common::Seconds;
using common::ServerId;

ClusterConfig split_config(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.server_count = 60;
  cfg.initial_load_min = 0.1;
  cfg.initial_load_max = 0.7;
  cfg.max_sleep_fraction_per_interval = 0.1;
  cfg.demand_change_probability = 0.3;
  cfg.seed = seed;
  return cfg;
}

TEST(SideFilteredQueries, IndexSearchesMatchFilteredScansOnEverySide) {
  for (const std::uint64_t seed : {8u, 19u, 57u}) {
    Cluster c(split_config(seed));
    // Let consolidation put servers to sleep first, so every side holds
    // sleepers for the wake pick.
    for (int i = 0; i < 4; ++i) c.step();
    std::vector<std::int32_t> groups(c.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
      groups[i] = static_cast<std::int32_t>(i % 3);
    }
    ASSERT_GE(c.begin_partition(groups), 0);

    std::size_t filter_changed_answer = 0;
    std::size_t wake_picks = 0;
    for (int round = 0; round < 8; ++round) {
      ASSERT_TRUE(c.membership().partitioned());
      const auto& idx = *c.regime_index();
      for (std::int32_t side = 0; side < 3; ++side) {
        const policy::PlacementFilter filter{&c.membership().groups(), side};
        const auto diverged = test_support::query_mismatch(c, &filter);
        ASSERT_FALSE(diverged.has_value())
            << "seed " << seed << " round " << round << " side " << side
            << ": " << *diverged;
        for (const double demand : {0.05, 0.2}) {
          const auto open = idx.find_tiered_target(
              demand, ServerId{}, policy::PlacementTier::kStaySuboptimal);
          const auto filtered = idx.find_tiered_target(
              demand, ServerId{}, policy::PlacementTier::kStaySuboptimal,
              &filter);
          if (open != filtered) ++filter_changed_answer;
        }
        if (idx.pick_wake_candidate(&filter).has_value()) ++wake_picks;
      }
      c.step();
    }
    // The filter must actually bite, and the wake pick must have had
    // sleepers to choose from -- otherwise the comparison proves little.
    EXPECT_GT(filter_changed_answer, 0U) << "seed " << seed;
    EXPECT_GT(wake_picks, 0U) << "seed " << seed;
  }
}

TEST(SideFilteredQueries, NullGroupMapAdmitsEveryServer) {
  Cluster c(split_config(3));
  for (int i = 0; i < 3; ++i) c.step();
  const policy::PlacementFilter open_filter{};
  const auto with = test_support::query_mismatch(c, &open_filter);
  EXPECT_FALSE(with.has_value()) << *with;
  const auto& idx = *c.regime_index();
  for (const double demand : {0.05, 0.2, 0.4}) {
    EXPECT_EQ(idx.find_tiered_target(demand, ServerId{0},
                                     policy::PlacementTier::kStaySuboptimal,
                                     &open_filter),
              idx.find_tiered_target(demand, ServerId{0},
                                     policy::PlacementTier::kStaySuboptimal));
  }
  EXPECT_EQ(idx.pick_wake_candidate(&open_filter), idx.pick_wake_candidate());
}

}  // namespace
}  // namespace eclb::cluster
