// ACPI sleep-state modelling.
//
// Section 2 describes the ACPI C-states (CPU), D-states (devices) and
// S-states (system).  The simulation uses C0 (running), C1 (halt) and the
// two sleep states the paper's policy actually selects between, C3 and C6:
// the deeper the state, the lower the hold power, the higher the wake
// latency and energy.  Reference [9] reports setup times up to 260 s with
// near-peak power draw during wake-up, which the defaults reflect at a
// simulation-friendly scale.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "common/units.h"

namespace eclb::energy {

/// The processor/package states the policy can place a server in.
enum class CState : std::uint8_t {
  kC0 = 0,  ///< Fully operational.
  kC1 = 1,  ///< Halt: clocks gated, instant wake.
  kC3 = 2,  ///< Deep sleep: caches flushed, clocks stopped.
  kC6 = 3,  ///< Power gated: core state saved, voltage removed.
};

/// Number of modelled C-states.
inline constexpr std::size_t kCStateCount = 4;

/// Human-readable name ("C0", "C1", "C3", "C6").
[[nodiscard]] std::string_view to_string(CState s);

/// Static parameters of one C-state.
struct CStateSpec {
  CState state{CState::kC0};
  double hold_power_fraction{1.0};   ///< Power while in the state, as a fraction of server peak.
  common::Seconds entry_latency{};   ///< Time to enter the state.
  common::Seconds wake_latency{};    ///< Time to return to C0.
  double wake_power_fraction{1.0};   ///< Power draw during wake-up, fraction of peak ([9]: near peak).
};

/// The default C-state table used throughout the experiments.  Hold powers:
/// C0 handled by the power model, C1 30 % of peak, C3 5 %, C6 1 %.  Wake
/// latencies: C1 instant (1 ms), C3 30 s, C6 180 s (scaled from [9]'s 260 s
/// worst case).
[[nodiscard]] const std::array<CStateSpec, kCStateCount>& default_cstate_table();

/// Spec lookup in a table.
[[nodiscard]] const CStateSpec& spec_for(const std::array<CStateSpec, kCStateCount>& table,
                                         CState s);

/// Tracks which C-state a server occupies, including in-flight transitions.
/// A transition occupies the wall-clock interval [start, end); during a wake
/// transition the server burns wake_power_fraction of peak.
class CStateMachine {
 public:
  /// Starts in C0 with the default table.
  CStateMachine();
  /// Starts in C0 with a custom table.
  explicit CStateMachine(std::array<CStateSpec, kCStateCount> table);

  /// State currently occupied (the *source* state while transitioning).
  [[nodiscard]] CState state() const { return state_; }

  /// Target of the in-flight transition, if any.
  [[nodiscard]] std::optional<CState> transition_target() const;

  /// True while a transition is in flight at time `now`.
  [[nodiscard]] bool transitioning(common::Seconds now) const;

  /// Begins a transition to `target` at time `now`.  Returns the completion
  /// time.  Requires no transition in flight and target != current state.
  common::Seconds begin_transition(CState target, common::Seconds now);

  /// Completes the in-flight transition if its end time has passed.
  /// Call with the current time before querying power.
  void settle(common::Seconds now);

  /// Returns to settled C0 with no transition in flight, keeping the table
  /// (power-cycle semantics: a crash or repair voids any in-flight
  /// transition).
  void reset();

  /// Instantaneous power fraction (of server peak) attributable to the
  /// C-state machinery at `now`: hold power when parked, transition power
  /// while moving.  In C0 this returns nullopt -- the load-dependent power
  /// model applies instead.
  [[nodiscard]] std::optional<double> power_fraction(common::Seconds now) const;

  /// The spec table in use.
  [[nodiscard]] const std::array<CStateSpec, kCStateCount>& table() const { return *table_; }

 private:
  /// Interned and immutable: the ~160-byte spec table is shared, not copied
  /// per machine, and lives for the whole process.  Nearly every server uses
  /// the default table, so the common case is one static instance for the
  /// whole fleet, reached without touching any shared counter.
  const std::array<CStateSpec, kCStateCount>* table_;
  CState state_{CState::kC0};
  std::optional<CState> target_;
  common::Seconds transition_end_{};
};

}  // namespace eclb::energy
