#include "support/scan_oracle.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "cluster/fabric.h"

namespace eclb::test_support {

namespace {
constexpr double kEps = 1e-9;

/// Tier admissibility: can `s` absorb `demand` under `tier`'s rule?
bool admissible(const server::Server& s, common::Seconds now, double demand,
                policy::PlacementTier tier) {
  if (!s.awake(now)) return false;
  const double post = s.load() + demand;
  const auto& t = s.thresholds();
  switch (tier) {
    case policy::PlacementTier::kLowRegimesOnly: {
      const auto r = s.regime();
      const bool low = r.has_value() && (*r == energy::Regime::kR1UndesirableLow ||
                                         *r == energy::Regime::kR2SuboptimalLow);
      return low && post <= t.alpha_opt_high;
    }
    case policy::PlacementTier::kStayOptimal:
      return post <= t.alpha_opt_high;
    case policy::PlacementTier::kStaySuboptimal:
      return post <= t.alpha_sopt_high;
  }
  return false;
}

bool filtered_out(const policy::PlacementFilter* filter, common::ServerId id) {
  return filter != nullptr && !filter->admits(id);
}
}  // namespace

std::optional<common::ServerId> find_tiered_target(
    std::span<const server::Server> servers, common::Seconds now, double demand,
    common::ServerId exclude, policy::PlacementTier max_tier,
    const policy::PlacementFilter* filter) {
  for (int tier = 0; tier <= static_cast<int>(max_tier); ++tier) {
    const auto t = static_cast<policy::PlacementTier>(tier);
    const server::Server* best = nullptr;
    double best_score = std::numeric_limits<double>::infinity();
    for (const auto& s : servers) {
      if (s.id() == exclude || filtered_out(filter, s.id())) continue;
      if (!admissible(s, now, demand, t)) continue;
      const double score =
          std::abs(s.load() + demand - s.thresholds().optimal_center());
      if (score < best_score) {
        best_score = score;
        best = &s;
      }
    }
    if (best != nullptr) return best->id();
  }
  return std::nullopt;
}

std::optional<common::ServerId> find_below_center_target(
    std::span<const server::Server> servers, common::Seconds now, double demand,
    common::ServerId exclude, const policy::PlacementFilter* filter) {
  const server::Server* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& s : servers) {
    if (s.id() == exclude || !s.awake(now)) continue;
    if (filtered_out(filter, s.id())) continue;
    const double post = s.load() + demand;
    if (post > s.thresholds().optimal_center()) continue;
    const double score = s.thresholds().optimal_center() - post;
    if (score < best_score) {
      best_score = score;
      best = &s;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->id();
}

std::optional<common::ServerId> find_drain_target(
    std::span<const server::Server> servers, common::Seconds now,
    const server::Server& donor, double demand,
    const policy::PlacementFilter* filter) {
  const server::Server* chosen = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& t : servers) {
    if (t.id() == donor.id() || !t.awake(now)) continue;
    if (filtered_out(filter, t.id())) continue;
    if (t.load() <= donor.load() + kEps) continue;  // uphill only
    const auto tr = t.regime();
    if (!tr.has_value()) continue;
    const double post = t.load() + demand;
    const bool low = *tr == energy::Regime::kR1UndesirableLow ||
                     *tr == energy::Regime::kR2SuboptimalLow;
    const bool r3_below_center =
        *tr == energy::Regime::kR3Optimal &&
        post <= t.thresholds().optimal_center() + kEps;
    if (!low && !r3_below_center) continue;
    if (post > t.thresholds().alpha_opt_high + kEps) continue;
    const double score = std::abs(post - t.thresholds().optimal_center());
    if (score < best_score) {
      best_score = score;
      chosen = &t;
    }
  }
  if (chosen == nullptr) return std::nullopt;
  return chosen->id();
}

std::optional<common::ServerId> pick_wake_candidate(
    std::span<const server::Server> servers, common::Seconds now,
    const policy::PlacementFilter* filter) {
  const server::Server* best = nullptr;
  for (const auto& s : servers) {
    if (filtered_out(filter, s.id())) continue;
    if (s.awake(now)) continue;
    if (s.in_transition(now)) continue;
    if (s.cstate() == energy::CState::kC0) continue;
    if (best == nullptr ||
        static_cast<int>(s.cstate()) < static_cast<int>(best->cstate())) {
      best = &s;
    }
  }
  if (best == nullptr) return std::nullopt;
  return best->id();
}

namespace {
constexpr std::uint32_t kSep = 0xFFFFFFFFU;
constexpr energy::Regime kRegimes[] = {
    energy::Regime::kR1UndesirableLow, energy::Regime::kR2SuboptimalLow,
    energy::Regime::kR3Optimal, energy::Regime::kR4SuboptimalHigh,
    energy::Regime::kR5UndesirableHigh};

template <class Next>
void walk(std::vector<std::uint32_t>& out, const Next& next) {
  for (auto id = next(std::optional<common::ServerId>{}); id.has_value();
       id = next(id)) {
    out.push_back(id->value);
  }
  out.push_back(kSep);
}

template <class Pred>
void scan(std::vector<std::uint32_t>& out,
          std::span<const server::Server> servers, const Pred& pred) {
  for (const auto& s : servers) {
    if (pred(s)) out.push_back(s.id().value);
  }
  out.push_back(kSep);
}
}  // namespace

std::vector<std::uint32_t> cursor_walks(const cluster::index::RegimeIndex& idx) {
  std::vector<std::uint32_t> out;
  using Cursor = std::optional<common::ServerId>;
  for (const auto r : kRegimes) {
    walk(out, [&](Cursor after) { return idx.next_in_regime(r, after); });
  }
  walk(out, [&](Cursor after) { return idx.next_above_center(after); });
  walk(out, [&](Cursor after) { return idx.next_parked(after); });
  walk(out, [&](Cursor after) { return idx.next_awake_empty(after); });
  return out;
}

std::vector<std::uint32_t> cursor_walks(std::span<const server::Server> servers,
                                        common::Seconds now) {
  std::vector<std::uint32_t> out;
  for (const auto r : kRegimes) {
    scan(out, servers, [&](const server::Server& s) {
      return s.awake(now) && s.regime() == r;
    });
  }
  scan(out, servers, [&](const server::Server& s) {
    return s.awake(now) && s.load() > s.thresholds().optimal_center() + kEps;
  });
  scan(out, servers, [&](const server::Server& s) {
    return !s.failed() && !s.in_transition(now) &&
           s.cstate() == energy::CState::kC1;
  });
  scan(out, servers, [&](const server::Server& s) {
    return s.awake(now) && s.vm_count() == 0;
  });
  return out;
}

std::optional<std::string> query_mismatch(const cluster::Cluster& c,
                                          const policy::PlacementFilter* filter) {
  const cluster::index::RegimeIndex& idx = *c.regime_index();
  const auto servers = c.servers();
  const common::Seconds now = c.now();
  std::ostringstream err;
  const auto id_text = [](std::optional<common::ServerId> id) {
    return id.has_value() ? std::to_string(id->value) : std::string("none");
  };
  const auto n = static_cast<std::uint32_t>(servers.size());
  for (const double demand : {0.01, 0.08, 0.2, 0.45}) {
    for (const common::ServerId exclude :
         {common::ServerId{0}, common::ServerId{1}, common::ServerId{2},
          common::ServerId{n / 2}, common::ServerId{}}) {
      for (const auto tier : {policy::PlacementTier::kLowRegimesOnly,
                              policy::PlacementTier::kStayOptimal,
                              policy::PlacementTier::kStaySuboptimal}) {
        const auto got = idx.find_tiered_target(demand, exclude, tier, filter);
        const auto want =
            test_support::find_tiered_target(servers, now, demand, exclude, tier, filter);
        if (got != want) {
          err << "tiered search (tier " << static_cast<int>(tier)
              << ", demand " << demand << ", exclude " << exclude.value
              << "): index " << id_text(got) << ", scan " << id_text(want);
          return err.str();
        }
      }
      const auto got = idx.find_below_center_target(demand, exclude, filter);
      const auto want =
          test_support::find_below_center_target(servers, now, demand, exclude, filter);
      if (got != want) {
        err << "below-center search (demand " << demand << ", exclude "
            << exclude.value << "): index " << id_text(got) << ", scan "
            << id_text(want);
        return err.str();
      }
    }
  }
  for (const auto& donor : servers) {
    if (!donor.awake(now) || donor.vms().empty()) continue;
    if (filter != nullptr && !filter->admits(donor.id())) continue;
    const double demand = donor.vms().front().demand();
    const auto got = idx.find_drain_target(donor, demand, filter);
    const auto want = test_support::find_drain_target(servers, now, donor, demand, filter);
    if (got != want) {
      err << "drain search (donor " << donor.id().value << "): index "
          << id_text(got) << ", scan " << id_text(want);
      return err.str();
    }
  }
  const auto got = idx.pick_wake_candidate(filter);
  const auto want = test_support::pick_wake_candidate(servers, now, filter);
  if (got != want) {
    err << "wake pick: index " << id_text(got) << ", scan " << id_text(want);
    return err.str();
  }
  if (cursor_walks(idx) != cursor_walks(servers, now)) {
    return std::string("cursor walks diverged");
  }
  return std::nullopt;
}

std::uint64_t report_digest(const cluster::IntervalReport& report) {
  cluster::FabricIntervalReport wrapped;
  wrapped.clusters.push_back(report);
  return cluster::fabric_report_digest(wrapped);
}

void fold_digest(std::uint64_t& h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFFU;
    h *= 1099511628211ULL;
  }
}

}  // namespace eclb::test_support
