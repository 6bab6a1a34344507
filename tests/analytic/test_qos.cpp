#include "analytic/qos.h"

#include <gtest/gtest.h>

#include <cmath>

namespace eclb::analytic {
namespace {

TEST(Qos, ResponseTimeMatchesMm1) {
  QosTarget t;
  t.service_time = 0.020;
  EXPECT_DOUBLE_EQ(response_time(t, 0.0), 0.020);
  EXPECT_DOUBLE_EQ(response_time(t, 0.5), 0.040);
  EXPECT_DOUBLE_EQ(response_time(t, 0.9), 0.200);
}

TEST(Qos, ResponseTimeDivergesAtSaturation) {
  QosTarget t;
  EXPECT_TRUE(std::isinf(response_time(t, 1.0)));
  EXPECT_TRUE(std::isinf(response_time(t, 1.5)));
}

TEST(Qos, ResponseTimeMonotoneInUtilization) {
  QosTarget t;
  double prev = 0.0;
  for (int i = 0; i <= 99; ++i) {
    const double r = response_time(t, i / 100.0);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

TEST(Qos, UtilizationCapInvertsResponseTime) {
  QosTarget t;
  t.service_time = 0.020;
  t.max_response_time = 0.100;
  const double cap = utilization_cap(t);
  EXPECT_DOUBLE_EQ(cap, 0.8);
  // At the cap the SLA is met with equality.
  EXPECT_NEAR(response_time(t, cap), t.max_response_time, 1e-12);
}

TEST(Qos, ImpossibleSlaCapsAtZero) {
  QosTarget t;
  t.service_time = 0.200;
  t.max_response_time = 0.100;  // tighter than the bare service time
  EXPECT_DOUBLE_EQ(utilization_cap(t), 0.0);
}

}  // namespace
}  // namespace eclb::analytic
