// The clustered cloud model of Section 4.
//
// A Cluster owns N heterogeneous servers connected to a leader in a star
// topology and executes the paper's reallocation protocol.  The cluster is a
// thin shell over three layers:
//   * the protocol (cluster/protocol/) -- the per-regime actions of one
//     reallocation round, free functions over a narrow ClusterView facade
//     that protocol::run_round calls in Section 4 order,
//   * the regime index (cluster/index/) -- the leader's incremental view of
//     every member's regime, answering the energy-aware placement, drain
//     and wake queries (partition-side filtered while the fabric is split),
//   * the placement layer (policy/placement.h) -- the traditional scanning
//     baselines the energy-aware rule is compared against,
//   * the instrumentation layer (cluster/recorder.h) -- actions emit typed
//     events; the recorder rolls them into the per-interval reports.
//
// Time lives on the sim::Simulation event kernel: reallocation boundaries
// and C-state transition completions are scheduled events on one clock, so
// a scenario event scheduled on simulation() (e.g. examples/flash_crowd's
// demand shock) interleaves exactly where it is scheduled.  See DESIGN.md
// "Architecture layers".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cluster/config.h"
#include "cluster/faults.h"
#include "cluster/index/pipeline_stats.h"
#include "cluster/membership.h"
#include "cluster/messages.h"
#include "cluster/recorder.h"
#include "common/rng.h"
#include "common/types.h"
#include "common/units.h"
#include "energy/regimes.h"
#include "policy/placement.h"
#include "server/server.h"
#include "sim/simulation.h"
#include "vm/application.h"
#include "vm/scaling.h"

namespace eclb::cluster {

namespace index {
class RegimeIndex;
}  // namespace index

namespace protocol {
class ClusterView;
}  // namespace protocol

/// Heap footprint of one cluster's data plane, broken down by owner (see
/// Cluster::memory_stats and eclb_cli --mem-stats).  All figures are exact
/// capacities, not RSS estimates.
struct ClusterMemoryStats {
  std::size_t state_table_bytes{0};     ///< SoA columns (server/state_table.h).
  std::size_t index_bytes{0};           ///< Regime index (bitsets + key arena).
  std::size_t server_objects_bytes{0};  ///< The Server array itself.
  std::size_t vm_storage_bytes{0};      ///< Hosted-VM vectors across the fleet.
  /// Always 0: the recorder hands each event to its sink and keeps no
  /// buffer.  Kept because perfbench reports it as mem.recorder_bytes.
  std::size_t recorder_bytes{0};
  std::size_t total_bytes{0};           ///< Sum of the above.
  double bytes_per_server{0.0};         ///< total_bytes / server count.
};

/// A VM displaced by a server crash, held by the cluster until the protocol
/// re-places it (the recover_orphans action).
struct OrphanVm {
  common::AppId app{};            ///< Application the VM belonged to.
  double demand{0.0};             ///< CPU demand to restore.
  common::ServerId origin{};      ///< The crashed host.
  common::Seconds orphaned_at{};  ///< When the crash happened.
};

/// The cluster itself.
class Cluster {
 public:
  /// Callback a multi-cluster cloud installs to take demand this cluster
  /// cannot place (returns true when a sibling accepted it).
  using OverflowHandler = std::function<bool(common::AppId, double demand)>;

  /// Builds servers, samples heterogeneous thresholds and populates the
  /// initial VM load per `config`.
  explicit Cluster(ClusterConfig config);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- observation ---------------------------------------------------------

  /// Live server array.
  [[nodiscard]] std::span<const server::Server> servers() const { return servers_; }
  /// Number of servers.
  [[nodiscard]] std::size_t size() const { return servers_.size(); }
  /// The configuration the cluster was built with.
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  /// Current simulation time (advanced by step() and the event kernel).
  [[nodiscard]] common::Seconds now() const { return sim_.now(); }

  /// Sum of all VM demands across the cluster.
  [[nodiscard]] double total_demand() const;
  /// Total VM count.
  [[nodiscard]] std::size_t total_vms() const;
  /// Demand as a fraction of usable capacity; 0 when no capacity is usable.
  [[nodiscard]] double load_fraction() const;
  /// Usable capacity: alive servers' (possibly derated) ceilings summed.
  /// Fault-free this is exactly the server count (1.0 each).  This is the
  /// figure a shard leader reports upward to the fabric's routing tier.
  [[nodiscard]] double usable_capacity() const;
  /// Servers currently not awake.
  [[nodiscard]] std::size_t sleeping_count() const;
  /// Servers currently halted in C1.
  [[nodiscard]] std::size_t parked_count() const;
  /// Servers currently in a deep sleep state (C3 or C6).
  [[nodiscard]] std::size_t deep_sleeping_count() const;
  /// Histogram of awake servers over the five regimes.
  [[nodiscard]] energy::RegimeHistogram regime_histogram() const;
  /// Energy consumed so far by servers plus control/data traffic.
  [[nodiscard]] common::Joules total_energy() const;
  /// Control-message statistics.
  [[nodiscard]] const MessageStats& message_stats() const { return messages_; }
  /// Accumulated cost of all local (vertical) decisions.
  [[nodiscard]] const vm::ScalingCost& local_cost_total() const { return local_cost_; }
  /// Accumulated cost of all in-cluster (horizontal) decisions.
  [[nodiscard]] const vm::ScalingCost& in_cluster_cost_total() const {
    return in_cluster_cost_;
  }
  /// The SoA table holding every server's hot state (slot == id index).
  /// Fleet-wide passes read its column spans instead of walking Server
  /// objects.
  [[nodiscard]] const server::ServerStateTable& state_table() const {
    return state_;
  }

  /// Exact heap footprint of the cluster's data plane.
  [[nodiscard]] ClusterMemoryStats memory_stats() const;

  /// Cumulative counters of the index's coalesced notification pipeline
  /// (src/cluster/index/pipeline_stats.h).  Kept out of IntervalReport on
  /// purpose: they count execution work (flushes, refiles), not protocol
  /// facts, and the report digests pin protocol facts only.
  [[nodiscard]] index::PipelineStats pipeline_stats() const;

  /// Enables wall-clock timing of the index's flush phases (diff / refile
  /// buckets of pipeline_stats()).
  void set_pipeline_phase_timing(bool on);

  // --- driving -------------------------------------------------------------

  /// Advances the event kernel to the next reallocation boundary (settling
  /// any C-state transitions that complete on the way) and runs one protocol
  /// round there.  Returns the interval report.
  IntervalReport step();

  /// The event kernel the cluster lives on.  A scenario schedules its
  /// events here; they interleave with rounds and transitions on the one
  /// shared clock, and an event at a round's time runs before that round
  /// if it was scheduled before the step() that reaches it.
  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] const sim::Simulation& simulation() const { return sim_; }

  /// The interval recorder (install an event sink for tracing/metrics).
  [[nodiscard]] IntervalRecorder& recorder() { return recorder_; }
  [[nodiscard]] const IntervalRecorder& recorder() const { return recorder_; }

  // --- observability --------------------------------------------------------

  /// Attaches `observer` for the cluster's lifetime (caller keeps
  /// ownership).  Observers receive every protocol event, interval
  /// boundaries and wall-clock phase timings; they are read-only and never
  /// perturb the simulation.  Installs the recorder sink, replacing any
  /// manually set one.
  void attach_observer(ClusterObserver* observer);
  /// Detaches every observer and removes the recorder sink.
  void detach_observers();
  /// True when at least one observer is attached.
  [[nodiscard]] bool has_observers() const { return !observers_.empty(); }
  /// Reports a wall-clock phase duration to all observers (no-op when none
  /// are attached; used by the protocol layers).
  void notify_phase(std::string_view phase, double wall_seconds);

  // --- fault tolerance -------------------------------------------------------

  /// Installs the fault runtime (src/fault's injector; caller keeps
  /// ownership).  Arms the leader heartbeat when the runtime's period is
  /// positive.  Pass nullptr to disarm.  With no runtime installed -- or an
  /// installed runtime that never injects -- the simulation is bit-identical
  /// to a fault-free run.
  void install_faults(FaultRuntime* runtime);
  /// The installed fault runtime; nullptr when none.
  [[nodiscard]] FaultRuntime* faults() const { return faults_; }

  /// Crashes `id` at the current simulation time: its VMs become orphans
  /// (queued for re-placement by the protocol), its power drops to zero, and
  /// if it held leadership the cluster is leaderless until the heartbeat
  /// protocol detects the loss and elects a survivor.  No-op when already
  /// failed.
  void crash_server(common::ServerId id);
  /// Returns a failed server to service (awake, empty).  Its former VMs stay
  /// wherever recovery placed them.  No-op when not failed.
  void recover_server(common::ServerId id);
  /// Derates `id` to `capacity` (in (0, 1]) of nominal; placement and SLA
  /// accounting respect the lowered ceiling.
  void derate_server(common::ServerId id, double capacity);

  /// The server currently holding the leader role (initially server 0).
  /// Leadership is a control-plane role: a *sleeping* leader host still
  /// routes decisions (the role lives in its always-on management plane);
  /// only a crash takes leadership down.  While partitioned this is the
  /// quorum side's leader; minority sub-leaders live in membership().
  [[nodiscard]] common::ServerId leader_server() const {
    return membership_.side(membership_.quorum()).leader;
  }
  /// False while the leader host is crashed and no successor has been
  /// elected yet; all leader-mediated placement stalls in that window.
  [[nodiscard]] bool leader_available() const {
    const SideState& side = membership_.side(membership_.quorum());
    return side.leader.valid() && !side.leader_down;
  }
  /// Servers currently failed.
  [[nodiscard]] std::size_t failed_count() const { return failed_count_; }
  /// Crash-orphaned VMs not yet re-placed.
  [[nodiscard]] std::span<const OrphanVm> orphans() const { return orphans_; }

  // --- partition tolerance ---------------------------------------------------

  /// Splits the membership into the sides of `group_of` (one group index
  /// per server).  The quorum side -- most live members, deterministic
  /// tie-breaks (see quorum_group) -- keeps the committed epoch and the full
  /// protocol; every other side elects a sub-leader at a bumped
  /// *provisional* epoch and runs degraded (vertical/local scaling only, no
  /// cross-side migration or wake).  When configured, the quorum
  /// shadow-restarts applications stranded on minority servers.  Returns the
  /// quorum group, or -1 when the call is a no-op (already partitioned, or a
  /// reconciliation is still pending).
  std::int32_t begin_partition(const std::vector<std::int32_t>& group_of);
  /// Marks the fabric whole again.  Membership stays split until the next
  /// protocol round, whose anti-entropy reconciliation pass merges the
  /// views and resolves duplicated/orphaned placements; the gap is the
  /// heal-convergence window the recorder reports.
  void heal_partition();

  /// The membership view: sides, side leaders, epochs.
  [[nodiscard]] const Membership& membership() const { return membership_; }
  /// True between a heal and the reconciliation pass that follows it.
  [[nodiscard]] bool reconcile_pending() const { return reconcile_pending_; }
  /// True when `id` sits on a non-quorum side of an active partition (the
  /// degraded mode: vertical/local scaling only).
  [[nodiscard]] bool degraded(common::ServerId id) const {
    return membership_.partitioned() && id.valid() && !membership_.in_quorum(id);
  }

  /// Structural invariant audit: a whole fabric has exactly one side whose
  /// leader holds the highest epoch and an empty shadow ledger; VM ids are
  /// unique fleet-wide (no double placement); the regime index agrees with a
  /// fresh classification.  Returns a description of the first violation, or
  /// nullopt when sound.
  [[nodiscard]] std::optional<std::string> self_audit() const;

  // --- multi-cluster hooks ---------------------------------------------------

  /// Installs the overflow handler (see Fabric).  Pass nullptr to remove.
  void set_overflow_handler(OverflowHandler handler) {
    overflow_handler_ = std::move(handler);
  }

  /// Accepts demand from a sibling cluster: starts a fresh VM of `demand`
  /// CPU fraction on a server picked by this cluster's placement policy.
  /// Returns false when no server can take it.  Charges the usual
  /// horizontal-start costs to the accepting server.
  bool accept_external(common::AppId app, double demand);

  /// Injects a workload VM onto a specific server (scenario setup: heating
  /// a cluster, replaying a placement).  Samples the VM's growth rate like any
  /// protocol-created VM.  May oversubscribe the server.  Returns the id.
  common::VmId inject_vm(common::ServerId server, common::AppId app,
                         double demand);

  // --- testing hooks -------------------------------------------------------

  /// Direct mutable access for tests and custom policies.
  [[nodiscard]] std::span<server::Server> mutable_servers() { return servers_; }
  /// The RNG (forked from the master seed).
  [[nodiscard]] common::Rng& rng() { return rng_; }
  /// The incremental regime index (always present).
  [[nodiscard]] const index::RegimeIndex* regime_index() const {
    return index_.get();
  }

 private:
  friend class protocol::ClusterView;

  void populate();
  common::VmId spawn_vm(server::Server& host, common::AppId app, double demand,
                        bool force);
  server::Server& server_ref(common::ServerId id);
  /// Placement through the configured strategy: the regime index's widest
  /// tiered search for the energy-aware rule, the scanning policy object
  /// otherwise.  While partitioned, only quorum-side requests are brokered
  /// and the search is confined to the quorum side.  Shared by the protocol
  /// view and accept_external.
  std::optional<common::ServerId> pick_placement(double demand,
                                                 common::ServerId exclude);
  /// Confines a search to `side` while the fabric is partitioned; admits
  /// every server when it is whole.
  [[nodiscard]] policy::PlacementFilter side_filter(std::int32_t side) const;
  /// Executes one protocol round at the current kernel time.
  IntervalReport run_round();
  /// Fleet-wide settle + energy step over the state table's pending column:
  /// non-pending servers advance their meters from the cached static power,
  /// pending ones take the full time-dependent path (bit-identical to the
  /// legacy per-server settle/update_energy loop).
  void sweep_settle_and_energy(common::Seconds now, bool settle);
  /// Schedules the settle + energy charge of an in-flight C-state transition
  /// at its exact completion instant.
  void schedule_transition(common::ServerId id, common::Seconds done);

  // --- priced protocol acts: one function each, shared by every path -------

  /// Records `n` control messages of `kind`, plus their traffic energy when
  /// `network_energy`.  The only place a control message is counted.
  void charge_message(MessageKind kind, std::size_t n, bool network_energy);
  /// A horizontal VM start on pre-checked `target`: spawn, start cost (in-
  /// cluster cost, host energy, which includes the j_k negotiation energy)
  /// and negotiation messages.  The only pricing of all four starts;
  /// callers record their own event.
  common::VmId start_vm(common::ServerId target, common::AppId app,
                        double demand);
  /// Executes a pre-checked migration: moves the VM, charges energies,
  /// negotiation messages and the in-cluster decision.
  bool do_migrate(server::Server& source, common::VmId vm_id,
                  common::ServerId target_id, MigrationCause cause);
  /// Begins waking `id` now (transition scheduling + bookkeeping).
  void begin_wake_now(common::ServerId id);

  // A leader command's first send (attempt 0, from the round) and each
  // retry go through its send_* function: charge, cross the leader link,
  // then book a drop and arm the next retry, or act on delivery.  Commands
  // carry `issued`, the epoch of the sending side: a receiver whose side
  // has moved on fences a retried or delayed command (the stale-leader
  // guard).  The schedule_*_retry timers keep only the fence, the moot
  // checks and the retry booking.

  /// Sends a wake command to `id`.  Every send pays the link delay.
  void send_wake(common::ServerId id, std::size_t attempt, Epoch issued);
  /// Fence and moot checks of a retried or delayed wake at fire time: false
  /// when the command is fenced (and booked so) or the wake is moot.
  [[nodiscard]] bool wake_still_due(common::ServerId id, Epoch issued);
  void schedule_wake_retry(common::ServerId id, std::size_t attempt,
                           Epoch issued);
  /// Sends `vm`'s transfer request; on delivery draws the mid-copy failure
  /// and migrates.  True when the VM moved.
  bool send_transfer(common::ServerId source, common::VmId vm,
                     common::ServerId target, MigrationCause cause,
                     std::size_t attempt, Epoch issued);
  void schedule_transfer_retry(common::ServerId source, common::VmId vm,
                               common::ServerId target, MigrationCause cause,
                               std::size_t attempt, Epoch issued);
  /// Re-places one orphan onto `target` (pre-checked by placement) and
  /// closes its crash episode when it was the last outstanding VM.
  void replace_orphan(common::ServerId target, const OrphanVm& orphan);
  /// One beat of the per-side leader liveness protocol.
  void heartbeat_tick();
  /// Deterministic re-election within one side: its lowest-id awake live
  /// member, else its lowest-id live member (woken by the protocol later).
  /// Every successful election allocates a fresh epoch from the shared
  /// monotonic counter and stamps the side `provisional` as requested.
  void elect_side_leader(std::int32_t group, bool provisional);
  /// Shadow-restarts applications hosted on live minority servers onto the
  /// quorum side (when config().partition_shadow_restart), recording every
  /// replacement in the shadow ledger for the reconciliation pass.
  void shadow_restart_minority();
  /// The anti-entropy pass after a heal: merges the membership views under
  /// the surviving highest-epoch leader at a fresh epoch, retires duplicate
  /// shadow placements (original survived) or adopts them (original lost),
  /// and emits the convergence metrics.  Defined
  /// in protocol/reconcile_partitions.cpp beside the action that drives it.
  void reconcile_partitions();
  /// Drops the ledger entry tracking `vm` as a shadow; true when it was one.
  bool take_shadow_entry(common::VmId vm);
  /// Closes one outstanding orphan of `origin`'s crash episode (MTTR sample
  /// when it was the last).
  void close_crash_outstanding(common::ServerId origin);

  ClusterConfig config_;
  common::Rng rng_;
  OverflowHandler overflow_handler_;
  /// The shared SoA state table.  Declared before servers_ (servers write
  /// their rows through it during construction) and therefore destroyed
  /// after them, so a Server never outlives its row.
  server::ServerStateTable state_;
  std::vector<server::Server> servers_;
  /// Built once the servers exist and never null.  Declared after servers_
  /// so it is destroyed first; servers never notify from their destructor,
  /// so the dangling listener pointer is harmless.
  std::unique_ptr<index::RegimeIndex> index_;
  MessageStats messages_;
  vm::ScalingCost local_cost_{};
  vm::ScalingCost in_cluster_cost_{};
  common::Joules traffic_energy_{};  ///< Network energy (messages + migration data).
  sim::Simulation sim_;              ///< The one clock everything runs on.
  /// The scanning baseline policy; null for the energy-aware strategy.
  std::unique_ptr<policy::PlacementPolicy> placement_;
  IntervalRecorder recorder_;
  std::vector<ClusterObserver*> observers_;
  std::size_t interval_index_{0};
  common::Joules energy_at_last_step_{};
  std::uint32_t next_vm_id_{0};
  std::uint32_t next_app_id_{0};
  /// Interval index at which each server last began a wake (anti-thrash).
  std::unordered_map<common::ServerId, std::size_t> last_wake_interval_;
  /// Interval index at which each server last began a deep sleep
  /// (hysteresis dwell guard + the wake_sleep_flaps metric).
  std::unordered_map<common::ServerId, std::size_t> last_sleep_interval_;

  // --- fault-tolerance state ------------------------------------------------

  /// One crash's service-restoration bookkeeping: MTTR is the time from the
  /// crash until its last displaced VM is running again.
  struct CrashEpisode {
    common::Seconds crashed_at{};
    std::size_t outstanding{0};  ///< Orphans from this crash not yet re-placed.
  };

  /// One quorum-side shadow restart of an application stranded across a
  /// partition.  Resolved by the reconciliation pass: original still
  /// running -> the shadow is retired as a duplicate; original gone -> the
  /// shadow is adopted as the surviving instance.
  struct ShadowVm {
    common::AppId app{};
    common::ServerId origin{};  ///< Minority host of the original VM.
    common::VmId original{};    ///< The unreachable original.
    common::VmId shadow{};      ///< The quorum-side replacement.
  };

  FaultRuntime* faults_{nullptr};
  Membership membership_;
  bool reconcile_pending_{false};
  common::Seconds heal_time_{};
  std::vector<ShadowVm> shadow_ledger_;
  sim::PeriodicHandle heartbeat_;
  std::size_t failed_count_{0};
  std::vector<OrphanVm> orphans_;
  std::unordered_map<common::ServerId, CrashEpisode> crash_episodes_;
};

}  // namespace eclb::cluster
