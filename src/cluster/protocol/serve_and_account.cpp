#include "analytic/qos.h"
#include "cluster/config.h"
#include "cluster/protocol/actions.h"
#include "cluster/protocol/view.h"

namespace eclb::cluster::protocol {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

void serve_and_account(ClusterView& view) {
  const ClusterConfig& config = view.config();
  const common::Seconds now = view.now();
  const double qos_cap = config.qos.has_value()
                             ? analytic::utilization_cap(*config.qos)
                             : 1.0;
  for (auto& s : view.servers()) {
    if (!s.awake(now)) continue;
    const double load = s.load();
    if (config.qos.has_value() && s.served_load() > qos_cap + kEps) {
      // Response-time SLA breached (Section 6: QoS may force operation
      // below the energy-optimal region).
      view.recorder().qos_violation(s.id());
    }
    if (load <= s.capacity() + kEps) continue;
    // Oversubscribed: demand is served proportionally; the shortfall is an
    // SLA violation for this interval.
    view.recorder().sla_violation(load - s.capacity(), s.id());
  }
}

void regime_report(ClusterView& view) {
  // Every server outside R3 reports its regime to the leader (j_k traffic).
  // The fan-in is a maintained aggregate; charging per report (rather than
  // once with n=reporters) keeps the message stats and traffic energy
  // bit-identical to the historical per-server loop.
  const std::size_t reporters = view.count_regime_reporters();
  for (std::size_t i = 0; i < reporters; ++i) {
    view.charge_message(MessageKind::kRegimeReport, 1,
                        /*network_energy=*/true);
  }
}

}  // namespace eclb::cluster::protocol
