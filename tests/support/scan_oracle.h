// Test-only O(N) scan oracle for the regime index's energy-aware searches.
//
// These are the straightforward full-fleet scans the protocol's placement
// queries are defined by: visit every server in id order, apply the
// admissibility rule, keep the strict minimum score (so ties resolve to the
// lowest id).  The production protocol answers every such query through
// cluster::index::RegimeIndex; the suites compare the index against these
// scans, with and without a partition-side filter, to prove the index
// returns exactly the scan's answer.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/index/regime_index.h"
#include "cluster/recorder.h"
#include "common/types.h"
#include "common/units.h"
#include "policy/placement.h"
#include "server/server.h"

namespace eclb::test_support {

/// The paper's tiered search: widens from kLowRegimesOnly up to `max_tier`;
/// within a tier the winner minimizes the post-placement distance to its own
/// optimal-region center.  `exclude` is skipped, as is every server `filter`
/// (when given) does not admit.
[[nodiscard]] std::optional<common::ServerId> find_tiered_target(
    std::span<const server::Server> servers, common::Seconds now, double demand,
    common::ServerId exclude, policy::PlacementTier max_tier,
    const policy::PlacementFilter* filter = nullptr);

/// A target able to absorb `demand` while ending at or below its own optimal
/// center; fullest viable target wins (the even-distribution rebalance).
[[nodiscard]] std::optional<common::ServerId> find_below_center_target(
    std::span<const server::Server> servers, common::Seconds now, double demand,
    common::ServerId exclude, const policy::PlacementFilter* filter = nullptr);

/// The consolidation uphill search: an R1/R2 peer with strictly more load
/// than `donor`, or an R3 peer staying below its own center, ending within
/// its optimal region; fullest-fit (closest to its center) wins.
[[nodiscard]] std::optional<common::ServerId> find_drain_target(
    std::span<const server::Server> servers, common::Seconds now,
    const server::Server& donor, double demand,
    const policy::PlacementFilter* filter = nullptr);

/// The shallowest settled sleeper, lowest id first; servers mid-transition
/// are not wakeable.
[[nodiscard]] std::optional<common::ServerId> pick_wake_candidate(
    std::span<const server::Server> servers, common::Seconds now,
    const policy::PlacementFilter* filter = nullptr);

/// Every ordered cursor walked end to end, in id order, separator-delimited:
/// the five regimes, above-center, parked (settled C1), awake-empty.  The
/// index overload walks the index's cursors; the server overload derives
/// the same sequence by scanning the fleet.
[[nodiscard]] std::vector<std::uint32_t> cursor_walks(
    const cluster::index::RegimeIndex& idx);
[[nodiscard]] std::vector<std::uint32_t> cursor_walks(
    std::span<const server::Server> servers, common::Seconds now);

/// Compares the cluster's index against the scans on its current state:
/// the tiered search (every tier), the below-center search over a grid of
/// demands and excludes, the drain search for every awake donor (sized by
/// its first VM), the wake pick and the cursor walks.  `filter` restricts
/// the searches and the wake pick to one partition side; the drain search
/// then only asks for donors on that side, like the protocol does.  Returns
/// a description of the first disagreement, nullopt when all agree.
[[nodiscard]] std::optional<std::string> query_mismatch(
    const cluster::Cluster& c, const policy::PlacementFilter* filter = nullptr);

/// FNV-1a digest of one cluster interval report (every counter, histogram
/// bucket and energy bit pattern), via the fabric's report digest.
[[nodiscard]] std::uint64_t report_digest(const cluster::IntervalReport& report);

/// Folds `value` into a running FNV-1a digest `h` (start from kDigestSeed).
inline constexpr std::uint64_t kDigestSeed = 14695981039346656037ULL;
void fold_digest(std::uint64_t& h, std::uint64_t value);

}  // namespace eclb::test_support
