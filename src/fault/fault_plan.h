// Deterministic fault schedules.
//
// A FaultPlan is a declarative list of fault events -- server crashes and
// recoveries, leader failure, link loss/delay on the star fabric, live
// migration failure, capacity derating -- each stamped with the simulation
// time it fires at.  Plans are built programmatically (builder methods) or
// parsed from the compact `--faults` flag syntax, and compiled onto the
// cluster's event kernel by the fault injector.  A run is bit-reproducible
// from (cluster seed, plan): the plan carries its own fault-stream seed and
// the injector draws all fault randomness from it, never from the cluster's
// stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "common/units.h"

namespace eclb::fault {

/// What a scheduled fault event does when it fires.
enum class FaultKind : std::uint8_t {
  kServerCrash = 0,      ///< Crash `server` (its VMs become orphans).
  kServerRecover = 1,    ///< Repair `server` (awake, empty).
  kLeaderCrash = 2,      ///< Crash whichever server leads *at fire time*.
  kLinkLoss = 3,         ///< Set every leader link's loss probability to `value`.
  kLinkDelay = 4,        ///< Set every leader link's propagation delay to `value` s.
  kMigrationFailureRate = 5,  ///< Set the mid-copy migration failure rate to `value`.
  kCapacityDerate = 6,   ///< Derate `server` to `value` (in (0, 1]) of nominal.
  kPartitionStart = 7,   ///< Split the fabric into the event's server `groups`.
  kPartitionHeal = 8,    ///< Heal the fabric (a reconciliation pass follows).
};

/// Display name of a fault kind (stable; part of the flag syntax).
[[nodiscard]] std::string_view to_string(FaultKind k);

/// An inclusive run of server ids: `LO-HI` in the flag syntax, `ID` when
/// LO == HI.
struct ServerRange {
  common::ServerId lo{};
  common::ServerId hi{};
  friend bool operator==(const ServerRange&, const ServerRange&) = default;
};

/// One scheduled fault.
struct FaultEvent {
  FaultKind kind{FaultKind::kServerCrash};
  common::Seconds at{};        ///< Absolute simulation time the event fires.
  common::ServerId server{};   ///< Target server, for the per-server kinds.
  double value{0.0};           ///< Probability / delay / capacity, per kind.
  /// Partition sides (kPartitionStart only): groups[g] lists group g's
  /// members as id runs, never expanded before the injector compiles them
  /// against the cluster's size; servers not listed in any group join
  /// group 0.
  std::vector<std::vector<ServerRange>> groups{};
};

/// Hardened-protocol parameters a plan carries (heartbeat cadence, failover
/// threshold, retry policy).  Only consulted when the plan is non-empty.
struct FaultPlanParams {
  common::Seconds heartbeat_period{5.0};   ///< Leader liveness probe cadence.
  std::size_t failover_after_missed{3};    ///< Missed beats before re-election.
  /// Retry-policy *overrides*.  Unset fields defer to the cluster's
  /// ClusterConfig::retry policy, so retry behaviour is configured with the
  /// experiment and a plan only pins it when the spec says so explicitly.
  std::optional<std::size_t> max_retries{};              ///< `retries=N`.
  std::optional<common::Seconds> retry_backoff_base{};   ///< `backoff=SECS`.
  std::optional<common::Seconds> retry_backoff_cap{};    ///< `cap=SECS`.
};

/// A deterministic fault schedule plus the protocol parameters and the seed
/// of the fault randomness stream.
class FaultPlan {
 public:
  FaultPlan() = default;

  // --- builders (chainable) -------------------------------------------------

  /// Crashes `server` at `at`.
  FaultPlan& crash(common::Seconds at, common::ServerId server);
  /// Repairs `server` at `at`.
  FaultPlan& recover(common::Seconds at, common::ServerId server);
  /// Crashes the then-current leader at `at` (resolved when the event fires,
  /// so stacked leader crashes chase the failover chain).
  FaultPlan& crash_leader(common::Seconds at);
  /// From `at`, every leader link drops control messages with probability `p`.
  FaultPlan& link_loss(common::Seconds at, double p);
  /// From `at`, every leader link adds `delay` propagation delay.
  FaultPlan& link_delay(common::Seconds at, common::Seconds delay);
  /// From `at`, live migrations abort mid-copy with probability `p`.
  FaultPlan& migration_failure_rate(common::Seconds at, double p);
  /// At `at`, derate `server` to `capacity` (in (0, 1]) of nominal.
  FaultPlan& derate(common::Seconds at, common::ServerId server, double capacity);
  /// From `at` until `heal_at`, splits the fabric into `groups` (at least
  /// two disjoint server sets; servers listed nowhere join group 0).
  /// Consecutive ascending ids are stored as one run.
  FaultPlan& partition(common::Seconds at,
                       const std::vector<std::vector<common::ServerId>>& groups,
                       common::Seconds heal_at);
  /// Heals whatever partition is in force at `at` (no-op when whole).
  FaultPlan& heal(common::Seconds at);

  // --- observation ----------------------------------------------------------

  /// True when the plan schedules nothing: the injector then reports a zero
  /// heartbeat period and a run is bit-identical to one without faults.
  [[nodiscard]] bool empty() const { return events_.empty(); }
  /// Scheduled events, in insertion order (the event kernel's stable
  /// sequence numbers break same-time ties deterministically).
  [[nodiscard]] std::span<const FaultEvent> events() const { return events_; }
  /// Hardened-protocol parameters.
  [[nodiscard]] const FaultPlanParams& params() const { return params_; }
  [[nodiscard]] FaultPlanParams& params() { return params_; }
  /// Seed of the fault randomness stream (loss draws, migration aborts).
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  FaultPlan& set_seed(std::uint64_t seed) {
    seed_ = seed;
    return *this;
  }

  // --- flag syntax ----------------------------------------------------------

  /// Parses the compact `--faults` specification: `;`-separated items, each
  /// either a fault `kind@TIME[:k=v,...]` or a plan parameter `key=value`.
  ///
  ///   crash@T:s=ID      crash server ID at time T
  ///   recover@T:s=ID    repair server ID at time T
  ///   leader@T          crash the then-current leader at time T
  ///   loss@T:p=P        all links drop with probability P from time T
  ///   delay@T:d=SECS    all links add SECS propagation delay from time T
  ///   migfail@T:p=P     migrations abort with probability P from time T
  ///   derate@T:s=ID,c=CAP   derate server ID to CAP capacity at time T
  ///   part@T:g=GROUPS[,heal=T2]   partition the fabric at time T into
  ///                     GROUPS: `|`-separated groups of `+`-separated
  ///                     members, each a server ID or an ID range LO-HI
  ///                     (e.g. g=0-4|5-9); optional heal at time T2
  ///   heal@T            heal the partition in force at time T
  ///   seed=N  hb=SECS  miss=N  retries=N  backoff=SECS  cap=SECS
  ///                     (plan parameters: hb is 0 -- no heartbeat -- or
  ///                     at least 0.001 s; backoff and cap are at least
  ///                     0.001 s; retries is at most 64)
  ///
  /// Times and values are finite numbers; server ids are below
  /// ServerId::kInvalid.  Returns nullopt on a malformed spec and, when
  /// `error` is non-null, stores a human-readable description of the first
  /// problem including the byte offset of the offending token and the
  /// grammar expected there.
  [[nodiscard]] static std::optional<FaultPlan> parse(std::string_view spec,
                                                      std::string* error = nullptr);

  /// True when every server the plan names -- crash, recover and derate
  /// targets and partition members -- is below `servers`, the size of the
  /// cluster (or of each fabric shard) it will run on.  Otherwise stores a
  /// diagnostic naming the first offending item in `error` (may be null).
  [[nodiscard]] bool check_servers(std::size_t servers,
                                   std::string* error = nullptr) const;

  /// Serializes back into the flag syntax (parse(to_spec()) round-trips).
  [[nodiscard]] std::string to_spec() const;

 private:
  std::vector<FaultEvent> events_;
  FaultPlanParams params_{};
  std::uint64_t seed_{0x5EEDFA17ULL};
};

}  // namespace eclb::fault
