// The paper's five operating regimes (Figure 1, Section 4).
//
// A server's operating point is its normalized performance a in [0,1]
// (utilization) and normalized energy b = f(a).  Four per-server thresholds
// on a partition [0,1] into:
//   R1 undesirable-low, R2 suboptimal-low, R3 optimal,
//   R4 suboptimal-high, R5 undesirable-high.
// The thresholds are heterogeneous: sampled uniformly from the ranges given
// in Section 4 ([0.20,0.25], [0.25,0.45], [0.55,0.80], [0.80,0.85]).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/rng.h"

namespace eclb::energy {

class PowerModel;

/// The five operating regimes, ordered by load.
enum class Regime : std::uint8_t {
  kR1UndesirableLow = 1,
  kR2SuboptimalLow = 2,
  kR3Optimal = 3,
  kR4SuboptimalHigh = 4,
  kR5UndesirableHigh = 5,
};

/// Number of regimes.
inline constexpr std::size_t kRegimeCount = 5;

/// 0-based dense index (R1 -> 0 ... R5 -> 4) for histogram arrays.
[[nodiscard]] constexpr std::size_t regime_index(Regime r) {
  return static_cast<std::size_t>(r) - 1;
}

/// Regime from a 0-based index.
[[nodiscard]] constexpr Regime regime_from_index(std::size_t i) {
  return static_cast<Regime>(i + 1);
}

/// Short name: "R1".."R5".
[[nodiscard]] std::string_view to_string(Regime r);

/// Sampling ranges for each threshold, from Section 4.
struct RegimeThresholdRanges {
  double sopt_low_min{0.20}, sopt_low_max{0.25};
  double opt_low_min{0.25}, opt_low_max{0.45};
  double opt_high_min{0.55}, opt_high_max{0.80};
  double sopt_high_min{0.80}, sopt_high_max{0.85};
};

/// One server's regime boundaries in normalized-performance space
/// (the alpha thresholds of Figure 1).  Invariant:
/// 0 < sopt_low <= opt_low <= opt_high <= sopt_high < 1.
struct RegimeThresholds {
  double alpha_sopt_low{0.225};   ///< R1 / R2 boundary.
  double alpha_opt_low{0.35};     ///< R2 / R3 boundary.
  double alpha_opt_high{0.675};   ///< R3 / R4 boundary.
  double alpha_sopt_high{0.825};  ///< R4 / R5 boundary.

  /// Classifies a normalized performance value.  Boundary conventions:
  /// R3 is the closed interval [opt_low, opt_high]; the undesirable regions
  /// are open at their inner edge.
  [[nodiscard]] Regime classify(double normalized_performance) const;

  /// Center of the optimal region -- the target operating point the policy
  /// steers servers toward.
  [[nodiscard]] double optimal_center() const {
    return 0.5 * (alpha_opt_low + alpha_opt_high);
  }

  /// True when the invariant ordering holds.
  [[nodiscard]] bool valid() const;

  /// Samples heterogeneous thresholds from the paper's uniform ranges.
  static RegimeThresholds sample(common::Rng& rng,
                                 const RegimeThresholdRanges& ranges = {});
};

/// Branch-free classify of the served load min(load, capacity): the
/// 0-based regime index, regime_index(t.classify(served)).  The decision
/// ladder of classify counts how many of {a >= sopt_low, a >= opt_low,
/// a > opt_high, a > sopt_high} hold (>= at the two lower bounds, > at the
/// two upper ones, matching R3/R4 being closed on the right), so the sum
/// equals classify at every boundary.  Server::sync_derived writes it into
/// the state table's IndexRow, the regime index's only regime source.
[[nodiscard]] inline std::int8_t classify_regime_branchless(
    double load, double capacity, const RegimeThresholds& t) {
  const double a = load < capacity ? load : capacity;
  return static_cast<std::int8_t>(
      static_cast<int>(a >= t.alpha_sopt_low) +
      static_cast<int>(a >= t.alpha_opt_low) +
      static_cast<int>(a > t.alpha_opt_high) +
      static_cast<int>(a > t.alpha_sopt_high));
}

/// The beta (energy-space) boundaries corresponding to a server's alpha
/// thresholds through its power model (Figure 1's abscissa values).
struct EnergyRegimeBoundaries {
  double beta_0;          ///< Normalized energy at zero load (idle fraction).
  double beta_sopt_low;   ///< Energy at the R1/R2 boundary.
  double beta_opt_low;    ///< Energy at the R2/R3 boundary.
  double beta_opt_high;   ///< Energy at the R3/R4 boundary.
  double beta_sopt_high;  ///< Energy at the R4/R5 boundary.
};

/// Maps alpha thresholds to beta boundaries via the power model.
[[nodiscard]] EnergyRegimeBoundaries energy_boundaries(const RegimeThresholds& t,
                                                       const PowerModel& model);

/// Per-regime histogram: counts[regime_index(r)].
using RegimeHistogram = std::array<std::size_t, kRegimeCount>;

}  // namespace eclb::energy
