// Cluster construction and protocol knobs.
//
// Split from cluster.h so the protocol actions and the placement layer can
// see the configuration without pulling in the Cluster class itself.
#pragma once

#include <cstdint>
#include <optional>

#include "analytic/qos.h"
#include "common/units.h"
#include "energy/cstates.h"
#include "energy/regimes.h"
#include "policy/placement.h"
#include "vm/scaling.h"

namespace eclb::cluster {

/// The placement-rule selector lives with the placement policies; aliased
/// here because it has always been part of the cluster's public vocabulary.
using PlacementStrategy = policy::PlacementStrategy;
using policy::to_string;

/// Retry schedule for dropped control messages (wake commands, VM transfer
/// negotiations).  Attempt `a` (1-based) is re-sent after
/// min(base_delay * 2^(a-1), max_delay), up to `max_attempts` retries.
///// Purely deterministic: the schedule depends only on these values, never on
/// a random draw, so identical (seed, plan) runs retry at identical times.
struct RetryPolicy {
  std::size_t max_attempts{4};            ///< Retries before abandoning.
  common::Seconds base_delay{0.5};        ///< First retry delay.
  common::Seconds max_delay{8.0};         ///< Ceiling on the doubled delay.
};

/// Sleep/wake hysteresis: dual-threshold regime transitions plus a
/// minimum-dwell guard, the anti-oscillation machinery flash-crowd load
/// provokes the protocol into needing.  Disabled by default -- the legacy
/// single-threshold behavior is bit-identical with `enabled == false`.
/// The flap *metric* (wake_sleep_flaps) is always measured: a server that
/// reverses a sleep/wake transition within `flap_window_intervals` of the
/// opposite transition counts one flap, hysteresis on or off.
struct HysteresisConfig {
  /// Master switch for the gates below (the metric stays on regardless).
  bool enabled{false};

  /// A server may not begin sleeping until it has been awake this many
  /// intervals since its last wake (extends wake_cooldown_intervals), and
  /// may not be woken until it has slept this many intervals.
  std::size_t min_dwell_intervals{3};

  /// Dual-threshold consolidation gate: on top of the R1 regime placement,
  /// a drain source must sit below (enter_margin * its lower threshold) to
  /// start draining toward sleep, while the wake path is unaffected until
  /// pressure exceeds the exit side.  1.0 degenerates to the plain regime
  /// boundary.
  double enter_load_margin{0.8};

  /// Window, in intervals, inside which a reversed transition counts as a
  /// flap (metric only; no behavior change).
  std::size_t flap_window_intervals{8};
};

/// Everything needed to build and drive a cluster.
struct ClusterConfig {
  std::size_t server_count{100};

  /// Reallocation interval tau (uniform across servers by default).
  common::Seconds reallocation_interval{common::Seconds{60.0}};

  /// Initial per-server load is drawn uniformly from this range
  /// ([0.2, 0.4] for the paper's 30 % experiments, [0.6, 0.8] for 70 %).
  double initial_load_min{0.2};
  double initial_load_max{0.4};

  /// Per-application initial demand range (fraction of one server).
  double app_demand_min{0.05};
  double app_demand_max{0.15};

  /// Range the unique lambda_{i,k} growth bounds are sampled from.
  double lambda_min{0.01};
  double lambda_max{0.05};

  /// Probability an application re-evaluates its demand in an interval.
  double demand_change_probability{0.05};

  /// When false, the protocol's stochastic per-VM demand evolution (the
  /// EvolveAndScale bernoulli pass) is skipped entirely.  The request-level
  /// workload engine runs in this mode: an external driver sets every VM's
  /// demand from its request backlog before each round, and the protocol
  /// only reacts (shed, rebalance, sleep, SLA accounting).  Default true --
  /// the paper's self-evolving demand model.
  bool demand_evolution_enabled{true};

  /// A server sends at most this many VMs per reallocation interval (its
  /// migration NIC budget); spreads large re-balances over several
  /// intervals, which is what produces the gradual decay of Figure 3.
  std::size_t max_sends_per_interval{1};

  /// Enables the even-distribution pass: servers above their optimal-region
  /// center push one VM per interval to a server that stays *below* its own
  /// center.  The pass self-quenches once no below-center capacity is left.
  bool rebalance_enabled{true};

  /// A freshly woken server may not re-enter sleep for this many intervals
  /// (anti-thrash guard).
  std::size_t wake_cooldown_intervals{5};

  /// Sleep/wake hysteresis (dual thresholds + minimum dwell).  Disabled by
  /// default; the wake_sleep_flaps metric it targets is always measured.
  HysteresisConfig hysteresis{};

  /// Server power curve: fraction of peak drawn when idle (~0.5 in §2).
  double idle_power_fraction{0.5};
  /// Peak power per server (Koomey volume-class 2006 value by default).
  common::Watts peak_power{common::Watts{225.0}};

  /// When true, servers are a hardware mix instead of uniform volume-class
  /// machines: ~70 % volume, ~25 % mid-range, ~5 % high-end, with peak
  /// powers from Table 1 and slightly worse idle fractions up the range.
  bool heterogeneous_hardware{false};

  /// Optional response-time SLA (Section 6's QoS tension).  When set,
  /// servers operating above the SLA's utilization cap are reported as QoS
  /// violations each interval.
  std::optional<analytic::QosTarget> qos{};

  /// Regime threshold sampling ranges (§4 defaults).
  energy::RegimeThresholdRanges threshold_ranges{};

  /// Horizontal-scaling target selection.
  PlacementStrategy placement{PlacementStrategy::kEnergyAware};

  /// Master switch for the regime-driven actions (R4/R5 shedding and R1
  /// consolidation).  Off + kLeastLoaded placement + allow_sleep=false is
  /// the *traditional* load balancer the paper's Section 1 reformulates.
  bool regime_actions_enabled{true};

  /// Master switch for consolidation (off reproduces an always-on cloud).
  bool allow_sleep{true};
  /// The 60 % rule threshold: above it sleepers go to C3, below to C6.
  double sleep_state_load_threshold{0.60};
  /// At most this fraction of the fleet may *start* sleeping per interval
  /// (operational guardrail bounding capacity swing; also the mechanism
  /// behind Table 2's strong cluster-size dependence).
  double max_sleep_fraction_per_interval{0.008};

  /// Restrict sleep depth (nullopt = leader's 60 % rule; forcing kC3 or kC6
  /// supports the sleep-state ablation bench).
  std::optional<energy::CState> forced_sleep_state{};

  /// Retry schedule for dropped control messages.  The fault layer's
  /// FaultPlan can override individual fields per plan (`retries=`,
  /// `backoff=`, `cap=` spec parameters); unset overrides fall back here.
  RetryPolicy retry{};

  /// When true (the default) the quorum side of a fabric partition
  /// shadow-restarts replacements for applications hosted on servers it can
  /// no longer reach -- the split-brain divergence the post-heal
  /// reconciliation pass must detect and retire.  Off, the quorum waits out
  /// the partition and reconciliation only merges membership.
  bool partition_shadow_restart{true};

  /// Price list for p_k / q_k / j_k.
  vm::ScalingCostParams costs{};

  /// Master seed; all randomness derives from it.
  std::uint64_t seed{42};
};

}  // namespace eclb::cluster
