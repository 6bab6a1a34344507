// Energy accounting.
//
// Integrates piecewise-constant power over time and accumulates discrete
// energy charges (a server's share of a migration or a VM start).  Each
// server owns one meter; their totals are the per-run server energy the
// experiments report.
#pragma once

#include "common/assert.h"
#include "common/units.h"

namespace eclb::energy {

/// Piecewise-constant power integrator.
///
/// Usage: call `advance(t, p)` whenever power may have changed; the meter
/// charges the *previous* power level for the elapsed interval.  A wake-up
/// is not a discrete cost: while the transition is in flight the server's
/// power() reports the wake draw, and the meter integrates it like any other
/// level.  Discrete costs (e.g. a migration's transfer energy) go through
/// `charge`.
class EnergyMeter {
 public:
  /// Starts metering at time `start` with initial power `p0`.
  explicit EnergyMeter(common::Seconds start = common::Seconds{0.0},
                       common::Watts p0 = common::Watts{0.0});

  /// Accounts the interval [last update, now) at the previously set power,
  /// then records `power` as the draw from `now` on.  `now` must not go
  /// backwards.
  void advance(common::Seconds now, common::Watts power);

  /// Adds a lump-sum energy cost (non-negative).
  void charge(common::Joules amount);

  /// Total energy accumulated so far.
  [[nodiscard]] common::Joules total() const { return total_; }

  /// Power level currently being charged.
  [[nodiscard]] common::Watts current_power() const { return power_; }

 private:
  common::Seconds last_;
  common::Watts power_;
  common::Joules total_{};
};

}  // namespace eclb::energy
