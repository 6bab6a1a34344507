// Fault-tolerance hooks: the contract between the cluster and the fault
// layer (src/fault).
//
// The cluster never decides *whether* a fault happens -- it asks the
// installed FaultRuntime on every path a fault can perturb (message
// delivery, migration copies) and reads the hardened-protocol parameters
// (heartbeat period, failover threshold, retry policy) from it.  With no
// runtime installed every query short-circuits to the fault-free answer and
// the simulation is bit-identical to a build without the fault layer.
#pragma once

#include <cstddef>

#include "cluster/messages.h"
#include "common/types.h"
#include "common/units.h"

namespace eclb::cluster {

/// Installed via Cluster::install_faults by the fault layer (one per
/// cluster).  Implementations must draw randomness from their OWN stream,
/// never the cluster's, so an installed-but-quiet runtime (empty plan)
/// perturbs nothing.  The runtime keeps no tally: every fault event is
/// booked once, by the cluster's IntervalRecorder.
class FaultRuntime {
 public:
  virtual ~FaultRuntime() = default;

  // --- link model ----------------------------------------------------------

  /// Whether a control message of `kind` crossing `server`'s leader link is
  /// delivered.  May consume fault randomness (but must not when the link is
  /// loss-free, to preserve the empty-plan identity).
  [[nodiscard]] virtual bool deliver(MessageKind kind,
                                     common::ServerId server) = 0;

  /// Extra propagation delay on `server`'s leader link; zero behaves exactly
  /// like no delay (synchronous command execution).
  [[nodiscard]] virtual common::Seconds link_delay(
      common::ServerId server) const = 0;

  /// Whether a live migration source -> target fails mid-copy.  May consume
  /// fault randomness (but must not at failure rate zero).
  [[nodiscard]] virtual bool migration_fails(common::ServerId source,
                                             common::ServerId target) = 0;

  // --- retry policy --------------------------------------------------------

  /// Delay before retry number `attempt` (1-based) of a dropped message.
  [[nodiscard]] virtual common::Seconds retry_backoff(
      std::size_t attempt) const = 0;

  /// Retries after which a dropped message is abandoned.
  [[nodiscard]] virtual std::size_t max_retries() const = 0;

  // --- leader protocol parameters ------------------------------------------

  /// Period of the leader liveness heartbeat.
  [[nodiscard]] virtual common::Seconds heartbeat_period() const = 0;

  /// Consecutive missed heartbeats after which the survivors elect a new
  /// leader.
  [[nodiscard]] virtual std::size_t failover_after_missed() const = 0;
};

}  // namespace eclb::cluster
