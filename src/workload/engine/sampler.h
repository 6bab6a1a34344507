// Service-time distributions for the request engine.
//
// Production service times are heavy-tailed -- a handful of slow requests
// dominate the p99 -- so alongside the exponential baseline the engine
// offers lognormal and Pareto samplers, both parameterized by their *mean*
// (work in capacity-seconds) plus one shape knob, so swapping the
// distribution under a fixed offered load changes only the tail.  Closed-
// form moments are exposed for the property tests.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/rng.h"

namespace eclb::workload::engine {

/// Which service-time law a stream draws from.
enum class ServiceKind : std::uint8_t {
  kExponential = 0,  ///< Memoryless baseline (M/M/1-style).
  kLognormal = 1,    ///< Log-scale Gaussian; sigma sets the spread.
  kPareto = 2,       ///< Power-law tail; alpha sets the tail index.
};

/// Display name ("exp" / "lognormal" / "pareto").
[[nodiscard]] std::string_view to_string(ServiceKind kind);

/// One stream's service-time law.
struct ServiceModel {
  ServiceKind kind{ServiceKind::kLognormal};
  double mean{0.2};   ///< Mean work per request, capacity-seconds.  > 0.
  double sigma{1.0};  ///< Lognormal log-stddev.  > 0.
  double alpha{2.5};  ///< Pareto tail index.  > 1 (finite mean).
};

/// Draws service times from a ServiceModel.
class ServiceSampler {
 public:
  explicit ServiceSampler(const ServiceModel& model);

  /// One service time (capacity-seconds, > 0).
  [[nodiscard]] double sample(common::Rng& rng) const;

  /// E[S] -- equals model.mean by construction.
  [[nodiscard]] double theoretical_mean() const { return model_.mean; }
  /// Var[S]; infinity for a Pareto with alpha <= 2.
  [[nodiscard]] double theoretical_variance() const;

  [[nodiscard]] const ServiceModel& model() const { return model_; }

 private:
  ServiceModel model_;
  double lognormal_mu_{0.0};  ///< ln(mean) - sigma^2/2.
  double pareto_xm_{0.0};     ///< mean * (alpha - 1) / alpha.
};

}  // namespace eclb::workload::engine
