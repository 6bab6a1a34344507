#include "energy/cstates.h"

#include <gtest/gtest.h>

namespace eclb::energy {
namespace {

using common::Seconds;
using common::Watts;

TEST(CStates, Names) {
  EXPECT_EQ(to_string(CState::kC0), "C0");
  EXPECT_EQ(to_string(CState::kC1), "C1");
  EXPECT_EQ(to_string(CState::kC3), "C3");
  EXPECT_EQ(to_string(CState::kC6), "C6");
}

TEST(CStates, DefaultTableOrdering) {
  // Deeper states hold less power but wake slower (Section 2's trade-off).
  const auto& table = default_cstate_table();
  const auto& c1 = spec_for(table, CState::kC1);
  const auto& c3 = spec_for(table, CState::kC3);
  const auto& c6 = spec_for(table, CState::kC6);
  EXPECT_GT(c1.hold_power_fraction, c3.hold_power_fraction);
  EXPECT_GT(c3.hold_power_fraction, c6.hold_power_fraction);
  EXPECT_LT(c1.wake_latency, c3.wake_latency);
  EXPECT_LT(c3.wake_latency, c6.wake_latency);
}

TEST(CStateMachine, StartsAwake) {
  CStateMachine m;
  EXPECT_EQ(m.state(), CState::kC0);
  EXPECT_FALSE(m.transitioning(Seconds{0.0}));
  EXPECT_FALSE(m.power_fraction(Seconds{0.0}).has_value());
}

TEST(CStateMachine, EnterSleepTakesEntryLatency) {
  CStateMachine m;
  const Seconds done = m.begin_transition(CState::kC3, Seconds{10.0});
  EXPECT_DOUBLE_EQ(done.value, 11.0);  // C3 entry latency 1 s
  EXPECT_TRUE(m.transitioning(Seconds{10.5}));
  EXPECT_FALSE(m.transitioning(Seconds{11.0}));
  m.settle(Seconds{11.0});
  EXPECT_EQ(m.state(), CState::kC3);
}

TEST(CStateMachine, HoldPowerWhileParked) {
  CStateMachine m;
  m.begin_transition(CState::kC6, Seconds{0.0});
  m.settle(Seconds{100.0});
  const auto frac = m.power_fraction(Seconds{100.0});
  ASSERT_TRUE(frac.has_value());
  EXPECT_DOUBLE_EQ(*frac, 0.01);
}

TEST(CStateMachine, WakeBurnsNearPeak) {
  CStateMachine m;
  m.begin_transition(CState::kC3, Seconds{0.0});
  m.settle(Seconds{10.0});
  const Seconds ready = m.begin_transition(CState::kC0, Seconds{10.0});
  EXPECT_DOUBLE_EQ(ready.value, 40.0);  // 30 s C3 wake latency
  const auto frac = m.power_fraction(Seconds{20.0});
  ASSERT_TRUE(frac.has_value());
  EXPECT_DOUBLE_EQ(*frac, 0.95);  // [9]: near-peak during setup
  m.settle(Seconds{40.0});
  EXPECT_EQ(m.state(), CState::kC0);
  EXPECT_FALSE(m.power_fraction(Seconds{40.0}).has_value());
}

TEST(CStateMachine, TransitionTargetVisible) {
  CStateMachine m;
  EXPECT_FALSE(m.transition_target().has_value());
  m.begin_transition(CState::kC3, Seconds{0.0});
  ASSERT_TRUE(m.transition_target().has_value());
  EXPECT_EQ(*m.transition_target(), CState::kC3);
  m.settle(Seconds{2.0});
  EXPECT_FALSE(m.transition_target().has_value());
}

TEST(CStateMachine, SettleBeforeEndIsNoop) {
  CStateMachine m;
  m.begin_transition(CState::kC6, Seconds{0.0});  // 5 s entry
  m.settle(Seconds{2.0});
  EXPECT_EQ(m.state(), CState::kC0);  // still transitioning
  m.settle(Seconds{5.0});
  EXPECT_EQ(m.state(), CState::kC6);
}

TEST(CStateMachine, PowerAfterEndBeforeSettleUsesTarget) {
  CStateMachine m;
  m.begin_transition(CState::kC3, Seconds{0.0});
  // End time (1 s) passed but settle() not called: report the target's hold.
  const auto frac = m.power_fraction(Seconds{3.0});
  ASSERT_TRUE(frac.has_value());
  EXPECT_DOUBLE_EQ(*frac, 0.05);
}

TEST(CStateMachineDeathTest, DoubleTransitionAborts) {
  CStateMachine m;
  m.begin_transition(CState::kC3, Seconds{0.0});
  EXPECT_DEATH(m.begin_transition(CState::kC6, Seconds{0.5}),
               "transition already in flight");
}

TEST(CStateMachineDeathTest, TransitionToSelfAborts) {
  CStateMachine m;
  EXPECT_DEATH(m.begin_transition(CState::kC0, Seconds{0.0}),
               "already in target state");
}

}  // namespace
}  // namespace eclb::energy
