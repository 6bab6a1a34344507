// Property suite for the batched regime classification kernel.
//
// classify_regimes_gather() -- the kernel the index flush runs -- is the
// vectorizable SoA twin of RegimeThresholds::classify(); the two must agree
// for every load, capacity and threshold block -- including loads landing
// exactly on the boundary values, where the closed/open interval edges
// decide the regime -- whatever rows the slot list names, in whatever
// order.
#include "energy/regime_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "energy/regimes.h"

namespace eclb::energy {
namespace {

RegimeThresholds make_thresholds(double sl, double ol, double oh, double sh) {
  RegimeThresholds t;
  t.alpha_sopt_low = sl;
  t.alpha_opt_low = ol;
  t.alpha_opt_high = oh;
  t.alpha_sopt_high = sh;
  return t;
}

std::int8_t scalar_regime(const RegimeThresholds& t, double load,
                          double capacity) {
  // The legacy path: servers classify their *served* load (demand capped at
  // capacity), then map the regime to its index.
  const double served = std::min(load, capacity);
  return static_cast<std::int8_t>(regime_index(t.classify(served)));
}

/// Slots 0..n-1 in order: the gather kernel over every row.
std::vector<std::uint32_t> all_slots(std::size_t n) {
  std::vector<std::uint32_t> slots(n);
  for (std::size_t i = 0; i < n; ++i) slots[i] = static_cast<std::uint32_t>(i);
  return slots;
}

TEST(RegimeBatch, ExactBoundaryValues) {
  const RegimeThresholds t = make_thresholds(0.25, 0.4, 0.7, 0.85);
  // Each boundary plus a value just inside/outside on either side: the
  // classify() contract is R3 closed on both ends, R4 closed at sopt_high.
  const std::vector<double> loads = {0.0,  0.1,  0.25, 0.2500000001, 0.3,
                                     0.4,  0.5,  0.7,  0.7000000001, 0.8,
                                     0.85, 0.8500000001, 0.9, 1.0, 1.2};
  std::vector<double> capacity(loads.size(), 1.0);
  std::vector<double> sl(loads.size(), t.alpha_sopt_low);
  std::vector<double> ol(loads.size(), t.alpha_opt_low);
  std::vector<double> oh(loads.size(), t.alpha_opt_high);
  std::vector<double> sh(loads.size(), t.alpha_sopt_high);
  std::vector<std::int8_t> out(loads.size());
  classify_regimes_gather(all_slots(loads.size()), loads, capacity, sl, ol, oh,
                          sh, out);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    EXPECT_EQ(out[i], scalar_regime(t, loads[i], capacity[i]))
        << "load " << loads[i];
  }
}

TEST(RegimeBatch, BranchlessScalarMatchesClassify) {
  const RegimeThresholds t = make_thresholds(0.25, 0.4, 0.7, 0.85);
  for (const double load : {0.0, 0.25, 0.3, 0.4, 0.69, 0.7, 0.85, 0.86, 2.0}) {
    EXPECT_EQ(classify_regime_branchless(load, 1.0, t.alpha_sopt_low,
                                         t.alpha_opt_low, t.alpha_opt_high,
                                         t.alpha_sopt_high),
              scalar_regime(t, load, 1.0))
        << "load " << load;
  }
}

TEST(RegimeBatch, RandomizedLoadsThresholdsAndCapacities) {
  common::Rng rng(4242);
  constexpr std::size_t kN = 4096;
  std::vector<double> load(kN), capacity(kN), sl(kN), ol(kN), oh(kN), sh(kN);
  std::vector<RegimeThresholds> blocks(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    // Random but ordered threshold blocks, random capacity (derated
    // servers included), and loads that sometimes exceed capacity.
    double a = rng.uniform(0.05, 0.45);
    double b = a + rng.uniform(0.01, 0.3);
    double c = b + rng.uniform(0.01, 0.4);
    double d = c + rng.uniform(0.01, 0.2);
    blocks[i] = make_thresholds(a, b, c, d);
    sl[i] = a;
    ol[i] = b;
    oh[i] = c;
    sh[i] = d;
    capacity[i] = rng.uniform(0.4, 1.0);
    load[i] = rng.uniform(0.0, 1.4);
    // Pin a fraction of loads to an exact boundary of their own block --
    // the equality cases must agree too.
    const double roll = rng.uniform01();
    if (roll < 0.1) load[i] = a;
    else if (roll < 0.2) load[i] = b;
    else if (roll < 0.3) load[i] = c;
    else if (roll < 0.4) load[i] = d;
  }
  // Every row in order, then a shuffled subset with repeats: both the
  // 8-lane blocks and the scalar tail see gathered rows.
  std::vector<std::uint32_t> slots = all_slots(kN);
  for (std::size_t i = 0; i < kN / 3 + 5; ++i) {
    slots.push_back(static_cast<std::uint32_t>(rng.uniform(0.0, 1.0) * kN) %
                    kN);
  }
  std::vector<std::int8_t> out(slots.size());
  classify_regimes_gather(slots, load, capacity, sl, ol, oh, sh, out);
  for (std::size_t j = 0; j < slots.size(); ++j) {
    const std::size_t i = slots[j];
    EXPECT_EQ(out[j], scalar_regime(blocks[i], load[i], capacity[i]))
        << "slot " << i << " load=" << load[i] << " cap=" << capacity[i];
  }
}

}  // namespace
}  // namespace eclb::energy
