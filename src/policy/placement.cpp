#include "policy/placement.h"

#include <vector>

namespace eclb::policy {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

std::string_view to_string(PlacementStrategy s) {
  switch (s) {
    case PlacementStrategy::kEnergyAware: return "energy-aware";
    case PlacementStrategy::kLeastLoaded: return "least-loaded";
    case PlacementStrategy::kRandom: return "random";
    case PlacementStrategy::kRoundRobin: return "round-robin";
  }
  return "?";
}

std::optional<common::ServerId> LeastLoadedPlacement::pick(
    std::span<const server::Server> servers, common::Seconds now, double demand,
    common::ServerId exclude, common::Rng& /*rng*/,
    const PlacementFilter* filter) {
  const server::Server* best = nullptr;
  for (const auto& t : servers) {
    if (t.id() == exclude || !t.awake(now)) continue;
    if (filter != nullptr && !filter->admits(t.id())) continue;
    if (t.load() + demand > t.capacity() + kEps) continue;
    if (best == nullptr || t.load() < best->load()) best = &t;
  }
  if (best == nullptr) return std::nullopt;
  return best->id();
}

std::optional<common::ServerId> RandomPlacement::pick(
    std::span<const server::Server> servers, common::Seconds now, double demand,
    common::ServerId exclude, common::Rng& rng, const PlacementFilter* filter) {
  std::vector<common::ServerId> feasible;
  for (const auto& t : servers) {
    if (t.id() == exclude || !t.awake(now)) continue;
    if (filter != nullptr && !filter->admits(t.id())) continue;
    if (t.load() + demand > t.capacity() + kEps) continue;
    feasible.push_back(t.id());
  }
  if (feasible.empty()) return std::nullopt;
  return feasible[rng.index(feasible.size())];
}

std::optional<common::ServerId> RoundRobinPlacement::pick(
    std::span<const server::Server> servers, common::Seconds now, double demand,
    common::ServerId exclude, common::Rng& /*rng*/,
    const PlacementFilter* filter) {
  for (std::size_t probe = 0; probe < servers.size(); ++probe) {
    cursor_ = (cursor_ + 1) % servers.size();
    const auto& t = servers[cursor_];
    if (t.id() == exclude || !t.awake(now)) continue;
    if (filter != nullptr && !filter->admits(t.id())) continue;
    if (t.load() + demand > t.capacity() + kEps) continue;
    return t.id();
  }
  return std::nullopt;
}

std::unique_ptr<PlacementPolicy> make_placement(PlacementStrategy strategy) {
  switch (strategy) {
    case PlacementStrategy::kEnergyAware:
      return nullptr;
    case PlacementStrategy::kLeastLoaded:
      return std::make_unique<LeastLoadedPlacement>();
    case PlacementStrategy::kRandom:
      return std::make_unique<RandomPlacement>();
    case PlacementStrategy::kRoundRobin:
      return std::make_unique<RoundRobinPlacement>();
  }
  return nullptr;
}

}  // namespace eclb::policy
