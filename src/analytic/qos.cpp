#include "analytic/qos.h"

#include <algorithm>
#include <limits>

#include "common/assert.h"

namespace eclb::analytic {

double response_time(const QosTarget& target, double utilization) {
  ECLB_ASSERT(target.service_time > 0.0, "QosTarget: service time must be > 0");
  if (utilization >= 1.0) return std::numeric_limits<double>::infinity();
  const double u = std::max(0.0, utilization);
  return target.service_time / (1.0 - u);
}

double utilization_cap(const QosTarget& target) {
  ECLB_ASSERT(target.service_time > 0.0, "QosTarget: service time must be > 0");
  ECLB_ASSERT(target.max_response_time > 0.0,
              "QosTarget: max response time must be > 0");
  const double cap = 1.0 - target.service_time / target.max_response_time;
  return std::max(0.0, cap);
}

}  // namespace eclb::analytic
