// QoS / response-time model.
//
// The paper's objective observes "QoS constraints, such as the response
// time", and Section 6 notes that SaaS servers with real-time requirements
// may be forced to run *below* the energy-optimal region.  This module
// provides the standard M/M/1-style response-time proxy used to translate a
// response-time SLA into a utilization cap.
#pragma once

namespace eclb::analytic {

/// Response-time SLA for one service class.
struct QosTarget {
  /// Nominal service time at an unloaded server (seconds).
  double service_time{0.020};
  /// The SLA: mean response time must stay at or below this (seconds).
  double max_response_time{0.100};
};

/// M/M/1 mean response time at utilization u: service_time / (1 - u).
/// Diverges as u -> 1; returns +inf for u >= 1.
[[nodiscard]] double response_time(const QosTarget& target, double utilization);

/// The utilization cap implied by the SLA: the largest u with
/// response_time(u) <= max_response_time, i.e. 1 - service/max.
/// Returns 0 when the SLA is tighter than the bare service time.
[[nodiscard]] double utilization_cap(const QosTarget& target);

}  // namespace eclb::analytic
