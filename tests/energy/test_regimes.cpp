#include "energy/regimes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/rng.h"
#include "energy/power_model.h"

namespace eclb::energy {
namespace {

RegimeThresholds fixed() {
  RegimeThresholds t;
  t.alpha_sopt_low = 0.22;
  t.alpha_opt_low = 0.35;
  t.alpha_opt_high = 0.70;
  t.alpha_sopt_high = 0.82;
  return t;
}

TEST(Regimes, Names) {
  EXPECT_EQ(to_string(Regime::kR1UndesirableLow), "R1");
  EXPECT_EQ(to_string(Regime::kR3Optimal), "R3");
  EXPECT_EQ(to_string(Regime::kR5UndesirableHigh), "R5");
}

TEST(Regimes, IndexRoundTrip) {
  for (std::size_t i = 0; i < kRegimeCount; ++i) {
    EXPECT_EQ(regime_index(regime_from_index(i)), i);
  }
  EXPECT_EQ(regime_index(Regime::kR1UndesirableLow), 0U);
  EXPECT_EQ(regime_index(Regime::kR5UndesirableHigh), 4U);
}

TEST(Regimes, ClassifyInteriorPoints) {
  const auto t = fixed();
  EXPECT_EQ(t.classify(0.10), Regime::kR1UndesirableLow);
  EXPECT_EQ(t.classify(0.30), Regime::kR2SuboptimalLow);
  EXPECT_EQ(t.classify(0.50), Regime::kR3Optimal);
  EXPECT_EQ(t.classify(0.75), Regime::kR4SuboptimalHigh);
  EXPECT_EQ(t.classify(0.95), Regime::kR5UndesirableHigh);
}

TEST(Regimes, ClassifyBoundaries) {
  const auto t = fixed();
  // The optimal region is closed; undesirable regions open at inner edges.
  EXPECT_EQ(t.classify(0.22), Regime::kR2SuboptimalLow);
  EXPECT_EQ(t.classify(0.35), Regime::kR3Optimal);
  EXPECT_EQ(t.classify(0.70), Regime::kR3Optimal);
  EXPECT_EQ(t.classify(0.82), Regime::kR4SuboptimalHigh);
  EXPECT_EQ(t.classify(0.0), Regime::kR1UndesirableLow);
  EXPECT_EQ(t.classify(1.0), Regime::kR5UndesirableHigh);
}

TEST(Regimes, OptimalCenter) {
  const auto t = fixed();
  EXPECT_DOUBLE_EQ(t.optimal_center(), 0.525);
  EXPECT_EQ(t.classify(t.optimal_center()), Regime::kR3Optimal);
}

TEST(Regimes, DefaultThresholdsValid) {
  EXPECT_TRUE(RegimeThresholds{}.valid());
}

TEST(Regimes, InvalidOrderingDetected) {
  RegimeThresholds t = fixed();
  t.alpha_opt_low = 0.9;  // above opt_high
  EXPECT_FALSE(t.valid());
  t = fixed();
  t.alpha_sopt_high = 1.0;  // must be < 1
  EXPECT_FALSE(t.valid());
}

TEST(Regimes, SampleWithinSection4Ranges) {
  common::Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const auto t = RegimeThresholds::sample(rng);
    EXPECT_TRUE(t.valid());
    EXPECT_GE(t.alpha_sopt_low, 0.20);
    EXPECT_LE(t.alpha_sopt_low, 0.25);
    EXPECT_GE(t.alpha_opt_low, 0.25);
    EXPECT_LE(t.alpha_opt_low, 0.45);
    EXPECT_GE(t.alpha_opt_high, 0.55);
    EXPECT_LE(t.alpha_opt_high, 0.80);
    EXPECT_GE(t.alpha_sopt_high, 0.80);
    EXPECT_LE(t.alpha_sopt_high, 0.85);
  }
}

TEST(Regimes, SampleIsHeterogeneous) {
  common::Rng rng(7);
  const auto a = RegimeThresholds::sample(rng);
  const auto b = RegimeThresholds::sample(rng);
  EXPECT_NE(a.alpha_opt_low, b.alpha_opt_low);
}

TEST(Regimes, EnergyBoundariesThroughLinearModel) {
  const auto t = fixed();
  const LinearPowerModel m(common::Watts{200.0}, 0.5);
  const auto b = energy_boundaries(t, m);
  EXPECT_DOUBLE_EQ(b.beta_0, 0.5);
  EXPECT_DOUBLE_EQ(b.beta_sopt_low, 0.5 + 0.5 * 0.22);
  EXPECT_DOUBLE_EQ(b.beta_opt_low, 0.5 + 0.5 * 0.35);
  EXPECT_DOUBLE_EQ(b.beta_opt_high, 0.5 + 0.5 * 0.70);
  EXPECT_DOUBLE_EQ(b.beta_sopt_high, 0.5 + 0.5 * 0.82);
  // Beta boundaries are ordered like the alpha thresholds (monotone model).
  EXPECT_LT(b.beta_0, b.beta_sopt_low);
  EXPECT_LT(b.beta_sopt_low, b.beta_opt_low);
  EXPECT_LT(b.beta_opt_low, b.beta_opt_high);
  EXPECT_LT(b.beta_opt_high, b.beta_sopt_high);
}

// Property: classification is total and monotone in load -- as load grows
// the regime index never decreases.
class RegimeMonotoneSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegimeMonotoneSweep, ClassificationMonotoneInLoad) {
  common::Rng rng(GetParam());
  const auto t = RegimeThresholds::sample(rng);
  std::size_t prev = 0;
  for (int i = 0; i <= 1000; ++i) {
    const double a = i / 1000.0;
    const std::size_t idx = regime_index(t.classify(a));
    EXPECT_GE(idx, prev) << "load " << a;
    EXPECT_LT(idx, kRegimeCount);
    prev = idx;
  }
  EXPECT_EQ(t.classify(0.0), Regime::kR1UndesirableLow);
  EXPECT_EQ(t.classify(1.0), Regime::kR5UndesirableHigh);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegimeMonotoneSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- classify_regime_branchless ----------------------------------------------
//
// The branch-free form Server::sync_derived writes into the IndexRow must
// equal regime_index(classify(min(load, capacity))) for every load,
// capacity and threshold block -- including loads landing exactly on the
// boundary values, where the closed/open interval edges decide the regime.

RegimeThresholds make_thresholds(double sl, double ol, double oh, double sh) {
  RegimeThresholds t;
  t.alpha_sopt_low = sl;
  t.alpha_opt_low = ol;
  t.alpha_opt_high = oh;
  t.alpha_sopt_high = sh;
  return t;
}

std::int8_t ladder_regime(const RegimeThresholds& t, double load,
                          double capacity) {
  // Servers classify their *served* load (demand capped at capacity).
  const double served = std::min(load, capacity);
  return static_cast<std::int8_t>(regime_index(t.classify(served)));
}

TEST(RegimeBatch, ExactBoundaryValues) {
  const RegimeThresholds t = make_thresholds(0.25, 0.4, 0.7, 0.85);
  // Each boundary plus a value just inside/outside on either side: the
  // classify() contract is R3 closed on both ends, R4 closed at sopt_high.
  for (const double load : {0.0, 0.1, 0.25, 0.2500000001, 0.3, 0.4, 0.5, 0.7,
                            0.7000000001, 0.8, 0.85, 0.8500000001, 0.9, 1.0,
                            1.2}) {
    EXPECT_EQ(classify_regime_branchless(load, 1.0, t),
              ladder_regime(t, load, 1.0))
        << "load " << load;
  }
}

TEST(RegimeBatch, BranchlessScalarMatchesClassify) {
  // A derated server classifies its capped load: capacities on and between
  // the boundaries, with loads below, at and above them.
  const RegimeThresholds t = make_thresholds(0.25, 0.4, 0.7, 0.85);
  for (const double capacity : {0.4, 0.55, 0.7, 0.85, 1.0}) {
    for (const double load :
         {0.0, 0.25, 0.3, 0.4, 0.69, 0.7, 0.85, 0.86, 2.0}) {
      EXPECT_EQ(classify_regime_branchless(load, capacity, t),
                ladder_regime(t, load, capacity))
          << "load " << load << " capacity " << capacity;
    }
  }
}

TEST(RegimeBatch, RandomizedLoadsThresholdsAndCapacities) {
  common::Rng rng(4242);
  for (int i = 0; i < 4096; ++i) {
    // Random but ordered threshold blocks, random capacity (derated
    // servers included), and loads that sometimes exceed capacity.
    const double a = rng.uniform(0.05, 0.45);
    const double b = a + rng.uniform(0.01, 0.3);
    const double c = b + rng.uniform(0.01, 0.4);
    const double d = c + rng.uniform(0.01, 0.2);
    const RegimeThresholds t = make_thresholds(a, b, c, d);
    const double capacity = rng.uniform(0.4, 1.0);
    double load = rng.uniform(0.0, 1.4);
    // Pin a fraction of loads to an exact boundary of their own block --
    // the equality cases must agree too.
    const double roll = rng.uniform01();
    if (roll < 0.1) load = a;
    else if (roll < 0.2) load = b;
    else if (roll < 0.3) load = c;
    else if (roll < 0.4) load = d;
    EXPECT_EQ(classify_regime_branchless(load, capacity, t),
              ladder_regime(t, load, capacity))
        << "load=" << load << " cap=" << capacity;
  }
}

}  // namespace
}  // namespace eclb::energy
