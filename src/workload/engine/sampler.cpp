#include "workload/engine/sampler.h"

#include <cmath>
#include <limits>

#include "common/assert.h"

namespace eclb::workload::engine {

std::string_view to_string(ServiceKind kind) {
  switch (kind) {
    case ServiceKind::kExponential: return "exp";
    case ServiceKind::kLognormal: return "lognormal";
    case ServiceKind::kPareto: return "pareto";
  }
  return "?";
}

ServiceSampler::ServiceSampler(const ServiceModel& model) : model_(model) {
  ECLB_ASSERT(model_.mean > 0.0, "service model: mean must be > 0");
  ECLB_ASSERT(model_.sigma > 0.0, "service model: sigma must be > 0");
  ECLB_ASSERT(model_.alpha > 1.0, "service model: alpha must be > 1");
  // Lognormal: E[S] = exp(mu + sigma^2/2), so mu = ln(mean) - sigma^2/2.
  lognormal_mu_ = std::log(model_.mean) - 0.5 * model_.sigma * model_.sigma;
  // Pareto: E[S] = xm * alpha / (alpha - 1), so xm = mean (alpha-1)/alpha.
  pareto_xm_ = model_.mean * (model_.alpha - 1.0) / model_.alpha;
}

double ServiceSampler::sample(common::Rng& rng) const {
  switch (model_.kind) {
    case ServiceKind::kExponential:
      return rng.exponential(1.0 / model_.mean);
    case ServiceKind::kLognormal:
      return std::exp(rng.normal(lognormal_mu_, model_.sigma));
    case ServiceKind::kPareto: {
      // Inverse CDF with u in (0, 1]: uniform01 is [0, 1), so flip it.
      const double u = 1.0 - rng.uniform01();
      return pareto_xm_ * std::pow(u, -1.0 / model_.alpha);
    }
  }
  return model_.mean;
}

double ServiceSampler::theoretical_variance() const {
  const double m = model_.mean;
  switch (model_.kind) {
    case ServiceKind::kExponential:
      return m * m;
    case ServiceKind::kLognormal: {
      const double s2 = model_.sigma * model_.sigma;
      return (std::exp(s2) - 1.0) * m * m;
    }
    case ServiceKind::kPareto: {
      const double a = model_.alpha;
      if (a <= 2.0) return std::numeric_limits<double>::infinity();
      return pareto_xm_ * pareto_xm_ * a / ((a - 1.0) * (a - 1.0) * (a - 2.0));
    }
  }
  return 0.0;
}

}  // namespace eclb::workload::engine
