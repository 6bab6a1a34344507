#include "energy/regime_batch.h"

#include "common/assert.h"

namespace eclb::energy {

namespace {

/// Width of the blocked inner loop.  Eight independent lanes of identical
/// straight-line arithmetic (min, four compares, three adds) give the
/// auto-vectorizer a full AVX-512 double vector -- or two AVX2 / four NEON
/// vectors -- with no cross-lane dependency and no branch.
constexpr std::size_t kLanes = 8;

/// One 8-lane block of the branchless classification.  The per-lane math is
/// exactly classify_regime_branchless, which keeps the bit-identity argument
/// local.
inline void classify_block(const double* load, const double* capacity,
                           const double* sopt_low, const double* opt_low,
                           const double* opt_high, const double* sopt_high,
                           std::int8_t* out) {
  double a[kLanes];
  int r[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    a[l] = load[l] < capacity[l] ? load[l] : capacity[l];
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    r[l] = static_cast<int>(a[l] >= sopt_low[l]) +
           static_cast<int>(a[l] >= opt_low[l]) +
           static_cast<int>(a[l] > opt_high[l]) +
           static_cast<int>(a[l] > sopt_high[l]);
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    out[l] = static_cast<std::int8_t>(r[l]);
  }
}

}  // namespace

void classify_regimes_gather(std::span<const std::uint32_t> slots,
                             std::span<const double> load,
                             std::span<const double> capacity,
                             std::span<const double> alpha_sopt_low,
                             std::span<const double> alpha_opt_low,
                             std::span<const double> alpha_opt_high,
                             std::span<const double> alpha_sopt_high,
                             std::span<std::int8_t> out) {
  const std::size_t n = load.size();
  ECLB_ASSERT(capacity.size() == n && alpha_sopt_low.size() == n &&
                  alpha_opt_low.size() == n && alpha_opt_high.size() == n &&
                  alpha_sopt_high.size() == n,
              "classify_regimes_gather: column span length mismatch");
  ECLB_ASSERT(out.size() == slots.size(),
              "classify_regimes_gather: out span length mismatch");
  std::size_t j = 0;
  for (; j + kLanes <= slots.size(); j += kLanes) {
    // Gather the eight dirty lanes into contiguous blocks, then run the
    // straight-line block kernel on them.
    double g_load[kLanes], g_cap[kLanes], g_sl[kLanes], g_ol[kLanes];
    double g_oh[kLanes], g_sh[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::uint32_t s = slots[j + l];
      ECLB_ASSERT(s < n, "classify_regimes_gather: slot out of range");
      g_load[l] = load[s];
      g_cap[l] = capacity[s];
      g_sl[l] = alpha_sopt_low[s];
      g_ol[l] = alpha_opt_low[s];
      g_oh[l] = alpha_opt_high[s];
      g_sh[l] = alpha_sopt_high[s];
    }
    classify_block(g_load, g_cap, g_sl, g_ol, g_oh, g_sh, &out[j]);
  }
  for (; j < slots.size(); ++j) {
    const std::uint32_t s = slots[j];
    ECLB_ASSERT(s < n, "classify_regimes_gather: slot out of range");
    out[j] = classify_regime_branchless(load[s], capacity[s], alpha_sopt_low[s],
                                        alpha_opt_low[s], alpha_opt_high[s],
                                        alpha_sopt_high[s]);
  }
}

}  // namespace eclb::energy
