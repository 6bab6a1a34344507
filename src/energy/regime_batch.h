// Batched regime classification over structure-of-arrays server state.
//
// RegimeThresholds::classify is four compares and a couple of branches; what
// makes fleet-wide classification expensive at 10^5+ servers is walking one
// heap-allocated Server per call.  When loads, capacities and the four alpha
// thresholds live in parallel arrays, the dirty servers of an index flush
// classify in one tight, branch-free, auto-vectorizable pass.  The branchless
// form below is proven (and property-tested) equal to the scalar classify at
// every boundary, including the exact threshold values -- the regime index
// and the golden-hash contract depend on that bit-identity.
#pragma once

#include <cstdint>
#include <span>

#include "energy/regimes.h"

namespace eclb::energy {

/// The coalesced notification pipeline's kernel: classifies the served
/// load min(load[s], capacity[s]) of each column row s named by `slots`
/// against that row's thresholds, writing the 0-based regime index (0..4,
/// i.e. regime_index(classify(a))) of row slots[j] into out[j].  Every
/// slots[j] must index into the column spans (all of equal length); `out`
/// must have slots.size() elements.  Lane-for-lane the arithmetic is the
/// scalar classify_regime_branchless, so the result is bit-identical to
/// classifying the same rows one at a time.
///
/// Equivalence with RegimeThresholds::classify: the scalar decision ladder
///   a <  sopt_low  -> R1        a <  opt_low   -> R2
///   a <= opt_high  -> R3        a <= sopt_high -> R4        else R5
/// counts, for each value, how many of the predicates {a >= sopt_low,
/// a >= opt_low, a > opt_high, a > sopt_high} hold -- which is exactly the
/// sum the kernel takes (note >= at the two lower bounds, > at the two upper
/// bounds, matching R3/R4 being closed on the right).
void classify_regimes_gather(std::span<const std::uint32_t> slots,
                             std::span<const double> load,
                             std::span<const double> capacity,
                             std::span<const double> alpha_sopt_low,
                             std::span<const double> alpha_opt_low,
                             std::span<const double> alpha_opt_high,
                             std::span<const double> alpha_sopt_high,
                             std::span<std::int8_t> out);

/// Scalar form of the same branchless kernel (one server); used by the SoA
/// state table's derived-column sync so the per-mutation and batch paths
/// share one definition.
[[nodiscard]] inline std::int8_t classify_regime_branchless(
    double load, double capacity, double alpha_sopt_low, double alpha_opt_low,
    double alpha_opt_high, double alpha_sopt_high) {
  const double a = load < capacity ? load : capacity;
  return static_cast<std::int8_t>(
      static_cast<int>(a >= alpha_sopt_low) + static_cast<int>(a >= alpha_opt_low) +
      static_cast<int>(a > alpha_opt_high) + static_cast<int>(a > alpha_sopt_high));
}

}  // namespace eclb::energy
