#include "energy/energy_meter.h"

#include <gtest/gtest.h>

namespace eclb::energy {
namespace {

using common::Joules;
using common::Seconds;
using common::Watts;

TEST(EnergyMeter, StartsAtZero) {
  EnergyMeter m;
  EXPECT_DOUBLE_EQ(m.total().value, 0.0);
}

TEST(EnergyMeter, ChargesPreviousPowerOverInterval) {
  EnergyMeter m(Seconds{0.0}, Watts{100.0});
  m.advance(Seconds{10.0}, Watts{50.0});
  EXPECT_DOUBLE_EQ(m.total().value, 1000.0);  // 100 W for 10 s
  m.advance(Seconds{20.0}, Watts{0.0});
  EXPECT_DOUBLE_EQ(m.total().value, 1500.0);  // + 50 W for 10 s
}

TEST(EnergyMeter, ZeroLengthAdvanceOnlyChangesPower) {
  EnergyMeter m(Seconds{0.0}, Watts{100.0});
  m.advance(Seconds{0.0}, Watts{37.0});
  EXPECT_DOUBLE_EQ(m.total().value, 0.0);
  EXPECT_DOUBLE_EQ(m.current_power().value, 37.0);
}

TEST(EnergyMeter, ChargeAddsLumpSum) {
  EnergyMeter m;
  m.charge(Joules{123.0});
  m.charge(Joules{7.0});
  EXPECT_DOUBLE_EQ(m.total().value, 130.0);
}

TEST(EnergyMeter, AdditivityOfSubdividedIntervals) {
  // Integrating [0, 10] in one step equals integrating it in many.
  EnergyMeter coarse(Seconds{0.0}, Watts{80.0});
  coarse.advance(Seconds{10.0}, Watts{0.0});

  EnergyMeter fine(Seconds{0.0}, Watts{80.0});
  for (int i = 1; i <= 10; ++i) {
    fine.advance(Seconds{static_cast<double>(i)}, Watts{80.0});
  }
  EXPECT_NEAR(coarse.total().value, fine.total().value, 1e-9);
}

TEST(EnergyMeter, NonZeroStartTime) {
  EnergyMeter m(Seconds{100.0}, Watts{10.0});
  m.advance(Seconds{110.0}, Watts{10.0});
  EXPECT_DOUBLE_EQ(m.total().value, 100.0);
}

TEST(EnergyMeterDeathTest, TimeBackwardsAborts) {
  EnergyMeter m(Seconds{5.0}, Watts{1.0});
  EXPECT_DEATH(m.advance(Seconds{4.0}, Watts{1.0}), "time went backwards");
}

TEST(EnergyMeterDeathTest, NegativeChargeAborts) {
  EnergyMeter m;
  EXPECT_DEATH(m.charge(Joules{-1.0}), "negative charge");
}

}  // namespace
}  // namespace eclb::energy
