// The narrow facade protocol actions operate on.
//
// Actions never touch Cluster directly; they see servers, the leader's
// queries, the RNG, and a small set of priced mutation primitives (remote VM
// start, migration, offload, wake command, message charging).  Every
// primitive records its typed event with the interval recorder, so the
// actions stay focused on *policy* while the view guarantees consistent
// *bookkeeping*.  The primitives forward to Cluster's one function per
// priced act (Cluster::start_vm, send_transfer, send_wake, charge_message),
// which the fault layer's retry timers share, so a command's first send and
// its retries are priced and booked alike.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "cluster/messages.h"
#include "cluster/recorder.h"
#include "common/rng.h"
#include "common/types.h"
#include "common/units.h"
#include "policy/placement.h"
#include "server/server.h"
#include "vm/application.h"

namespace eclb::cluster {
class Cluster;
struct ClusterConfig;
struct OrphanVm;
}  // namespace eclb::cluster

namespace eclb::cluster::protocol {

class ProtocolAction;

/// Per-round facade over one Cluster.  Constructed by Cluster::run_round and
/// handed to each enabled action in sequence; lives on the stack for exactly
/// one reallocation interval.
class ClusterView {
 public:
  ClusterView(Cluster& cluster, ProtocolAction& wake_action)
      : cluster_(cluster), wake_action_(wake_action) {}

  // --- observation ---------------------------------------------------------

  /// Live server array (mutable: actions resize demand and move VMs).
  [[nodiscard]] std::span<server::Server> servers();
  /// The cluster's SoA state table (slot == id index): live column views
  /// for fleet-wide scans that do not need the Server objects.
  [[nodiscard]] const server::ServerStateTable& state() const;
  /// Server lookup by id (asserts on bad ids).
  [[nodiscard]] server::Server& server(common::ServerId id);
  /// The cluster's configuration.
  [[nodiscard]] const ClusterConfig& config() const;
  /// Simulation time of the current round.
  [[nodiscard]] common::Seconds now() const;
  /// The cluster's deterministic RNG (the only randomness source).
  [[nodiscard]] common::Rng& rng();
  /// This round's event recorder.
  [[nodiscard]] IntervalRecorder& recorder();
  /// Interval counter; already advanced for the running round, so wake
  /// bookkeeping naturally measures whole intervals.
  [[nodiscard]] std::size_t interval_index() const;
  /// Cluster demand over capacity (the 60 % rule input).
  [[nodiscard]] double load_fraction() const;
  /// Growth spec attached to a VM; nullptr if unknown.
  [[nodiscard]] const vm::DemandGrowthSpec* growth_of(common::VmId id) const;

  // --- placement queries ---------------------------------------------------

  /// Target for a horizontal-scaling start per the configured placement
  /// policy (the strategy under evaluation).
  [[nodiscard]] std::optional<common::ServerId> pick_horizontal_target(
      double demand, common::ServerId exclude);
  // Every energy-aware query below is answered by the cluster's regime
  // index.  While the fabric is partitioned each is confined to one side:
  // the quorum's for the leader's searches and wake pick, the donor's own
  // for the drain search.

  /// The leader's tiered energy-aware search (shedding, strict tiers).
  [[nodiscard]] std::optional<common::ServerId> find_target(
      double demand, common::ServerId exclude, policy::PlacementTier max_tier) const;
  /// The leader's below-center search (even-distribution rebalance).
  [[nodiscard]] std::optional<common::ServerId> find_below_center_target(
      double demand, common::ServerId exclude) const;
  /// The leader's wake pick: shallowest settled sleeper.
  [[nodiscard]] std::optional<common::ServerId> pick_wake_candidate() const;

  /// The consolidation uphill search (drain phase): an R1/R2 peer -- or an
  /// R3 peer staying below its own center -- with strictly more load than
  /// `donor`, ending within its optimal region; fullest-fit wins.
  [[nodiscard]] std::optional<common::ServerId> find_drain_target(
      const server::Server& donor, double demand) const;

  // --- scan-free cursors & counts ------------------------------------------
  //
  // Id-ordered *supersets* of each action's visit set, walked from the
  // index's buckets.  Actions re-apply their visit-time condition checks on
  // every returned server, so a cursor walk decides exactly what a plain id
  // loop over all servers with the same checks would.

  /// Next awake server in regime `r` with id greater than `after`
  /// (nullopt = start); nullopt when exhausted.
  [[nodiscard]] std::optional<common::ServerId> next_in_regime(
      energy::Regime r, std::optional<common::ServerId> after) const;
  /// Next awake server loaded above its own optimal center.
  [[nodiscard]] std::optional<common::ServerId> next_above_center(
      std::optional<common::ServerId> after) const;
  /// Next settled C1 sleeper.
  [[nodiscard]] std::optional<common::ServerId> next_parked(
      std::optional<common::ServerId> after) const;
  /// Next awake server hosting no VMs.
  [[nodiscard]] std::optional<common::ServerId> next_awake_empty(
      std::optional<common::ServerId> after) const;
  /// Servers whose regime is defined and != R3 (the j_k report fan-in).
  [[nodiscard]] std::size_t count_regime_reporters() const;

  // --- priced mutations ----------------------------------------------------

  /// Books a granted vertical resize on `server`: p_k cost + local decision.
  void grant_vertical(common::ServerId server);

  /// Starts a fresh VM of `demand` for `app` on `target` and books the
  /// horizontal-start cost, negotiation messages and in-cluster decision.
  void spawn_remote(common::ServerId target, common::AppId app, double demand);

  /// Live-migrates `vm_id` off `source` onto `target_id`, booking migration
  /// energy (source, target, network), negotiation messages and the
  /// in-cluster decision.  False when the target cannot take the VM, or the
  /// transfer request was lost (the retry protocol takes over) or the copy
  /// aborted.
  bool migrate(server::Server& source, common::VmId vm_id,
               common::ServerId target_id, MigrationCause cause);

  /// Offers `demand` to the overflow handler (a sibling cluster).  Books the
  /// offload when accepted.  Denied while `requester` is on a degraded
  /// (non-quorum) partition side -- its uplink runs through the quorum's
  /// switch.
  bool try_offload(common::AppId app, double demand,
                   common::ServerId requester);

  /// Asks the leader to wake a sleeping server (the R5 rule); delegates to
  /// the engine's RequestWake action.  No-op while `requester` is on a
  /// degraded partition side (no cross-side wake commands).
  void request_wake(common::ServerId requester);

  /// Sends the leader's wake command to sleeping `id`: charged, then lost
  /// (retried off-round), delayed by the link, or begun at once.
  void send_wake(common::ServerId id);

  /// Records `n` control messages of kind `kind`; when `network_energy` is
  /// set their cost is also charged to the cluster's traffic energy.
  void charge_message(MessageKind kind, std::size_t n, bool network_energy);

  /// Registers an in-flight C-state transition of `s` finishing at `done`;
  /// the cluster settles it (and charges energy) at exactly that instant on
  /// the event kernel.
  void begin_transition(server::Server& s, common::Seconds done);

  // --- wake bookkeeping ----------------------------------------------------

  /// Interval at which `id` last began a wake; nullopt when it never woke.
  [[nodiscard]] std::optional<std::size_t> last_wake_interval(
      common::ServerId id) const;
  /// Interval at which `id` last began a deep sleep; nullopt when it never
  /// slept.
  [[nodiscard]] std::optional<std::size_t> last_sleep_interval(
      common::ServerId id) const;
  /// Stamps `id` as slept this interval (hysteresis dwell input).
  void note_sleep(common::ServerId id);

  // --- fault-tolerance primitives -------------------------------------------

  /// False while the leader host is crashed and not yet failed over; all
  /// leader-mediated placement queries return nullopt in that window.
  [[nodiscard]] bool leader_available() const;
  /// True when crash-orphaned VMs await re-placement.
  [[nodiscard]] bool has_orphans() const;
  /// Takes the pending orphan queue (the RecoverOrphans action owns it for
  /// the round; unplaceable ones come back via requeue_orphan).
  [[nodiscard]] std::vector<OrphanVm> take_orphans();
  /// Returns an unplaceable orphan to the cluster queue for the next round.
  void requeue_orphan(const OrphanVm& orphan);
  /// Restarts one orphan on pre-checked `target`, booking horizontal-start
  /// cost + negotiation messages and closing the crash episode when it was
  /// the last outstanding VM.
  void replace_orphan(common::ServerId target, const OrphanVm& orphan);

  // --- partition tolerance ----------------------------------------------------

  /// True when `id` sits on a non-quorum side of an active partition; such
  /// servers run degraded (vertical/local scaling only) and the migration,
  /// sleep and wake passes skip them.
  [[nodiscard]] bool degraded(common::ServerId id) const;
  /// True between a heal and the reconciliation pass that follows it.
  [[nodiscard]] bool reconcile_pending() const;
  /// Runs the anti-entropy reconciliation (the ReconcilePartitions action).
  void reconcile_partitions();

 private:
  Cluster& cluster_;
  ProtocolAction& wake_action_;
};

}  // namespace eclb::cluster::protocol
