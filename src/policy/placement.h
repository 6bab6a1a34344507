// First-class placement policies for horizontal scaling.
//
// Section 4 routes every horizontal-scaling request through the cluster
// leader; the *rule* used to pick the target server is the policy under
// evaluation.  The energy-aware rule is the paper's: search progressively
// wider admissibility tiers (PlacementTier), preferring targets whose
// post-placement load lands closest to the center of their own optimal
// region.  The cluster's regime index answers it without scanning
// (cluster/index/regime_index.h).  The other three rules are the
// traditional baselines Section 1 reformulates; they genuinely scan the
// fleet, so each is a PlacementPolicy object here.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "common/units.h"
#include "server/server.h"

namespace eclb::policy {

/// How horizontal-scaling targets are picked.
enum class PlacementStrategy : std::uint8_t {
  /// The paper's policy: leader tiers preferring lightly loaded servers
  /// whose post-placement load lands near their optimal region.
  kEnergyAware = 0,
  /// Traditional load balancing: the least-loaded awake server with room.
  kLeastLoaded = 1,
  /// Random feasible server (the classic stateless balancer).
  kRandom = 2,
  /// Round-robin over awake servers with room.
  kRoundRobin = 3,
};

/// Display name.
[[nodiscard]] std::string_view to_string(PlacementStrategy s);

/// How aggressive an energy-aware placement search may be.
enum class PlacementTier : std::uint8_t {
  /// Only servers currently in R1/R2 that stay within their optimal region
  /// -- the strict Section 4 rule for consolidation (drain) traffic.
  kLowRegimesOnly = 0,
  /// Any server whose post-placement load stays within its optimal region
  /// (<= alpha_opt_high) -- used for R4/R5 shedding.
  kStayOptimal = 1,
  /// Any server whose post-placement load stays out of the undesirable-high
  /// region (<= alpha_sopt_high) -- last resort for application growth.
  kStaySuboptimal = 2,
};

/// Optional membership restriction on a placement search.  When installed,
/// only servers mapped to `group` by the per-server `groups` map are
/// eligible targets -- the partition-aware searches use it to confine
/// placements to the requester's side of a fabric split.  A null `groups`
/// pointer admits everything (the fault-free fast path).
struct PlacementFilter {
  const std::vector<std::int32_t>* groups{nullptr};  ///< Per-server group map.
  std::int32_t group{0};                             ///< The admitted group.

  [[nodiscard]] bool admits(common::ServerId id) const {
    return groups == nullptr || id.index() >= groups->size() ||
           (*groups)[id.index()] == group;
  }
};

/// One target-selection rule.  Policies are stateful where the rule demands
/// it (round-robin cursor); all randomness flows through the caller's RNG so
/// a policy object never perturbs the experiment's determinism.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Picks a server able to absorb `demand` more load, or nullopt when the
  /// rule finds none.  `exclude` is the requesting server and is skipped;
  /// `filter` (when given) restricts the eligible set -- partition-aware
  /// callers pass the requester's side.  Every override repeats the same
  /// null default so the five-argument call means the same thing through
  /// any static type.
  [[nodiscard]] virtual std::optional<common::ServerId> pick(
      std::span<const server::Server> servers, common::Seconds now,
      double demand, common::ServerId exclude, common::Rng& rng,
      const PlacementFilter* filter = nullptr) = 0;

  /// Display name (matches to_string of the corresponding strategy).
  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Least-loaded awake server with capacity for the demand.
class LeastLoadedPlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::optional<common::ServerId> pick(
      std::span<const server::Server> servers, common::Seconds now,
      double demand, common::ServerId exclude, common::Rng& rng,
      const PlacementFilter* filter = nullptr) override;
  [[nodiscard]] std::string_view name() const override { return "least-loaded"; }
};

/// Uniformly random feasible server.
class RandomPlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::optional<common::ServerId> pick(
      std::span<const server::Server> servers, common::Seconds now,
      double demand, common::ServerId exclude, common::Rng& rng,
      const PlacementFilter* filter = nullptr) override;
  [[nodiscard]] std::string_view name() const override { return "random"; }
};

/// Round-robin over feasible servers; the cursor survives across calls.
class RoundRobinPlacement final : public PlacementPolicy {
 public:
  [[nodiscard]] std::optional<common::ServerId> pick(
      std::span<const server::Server> servers, common::Seconds now,
      double demand, common::ServerId exclude, common::Rng& rng,
      const PlacementFilter* filter = nullptr) override;
  [[nodiscard]] std::string_view name() const override { return "round-robin"; }

 private:
  std::size_t cursor_{0};
};

/// Builds the scanning policy object implementing `strategy`; nullptr for
/// kEnergyAware, which the cluster's regime index serves.
[[nodiscard]] std::unique_ptr<PlacementPolicy> make_placement(
    PlacementStrategy strategy);

}  // namespace eclb::policy
