// A physical server: capacity, hosted VMs, power model, sleep states and
// energy accounting.
//
// Normalization convention (Section 4 of the paper): a server's CPU
// capacity is 1.0 and its load b_k(t) is the sum of hosted VM demands; the
// normalized performance a_k equals the served load.  Heterogeneity enters
// through per-server regime thresholds, power models and peak powers.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "common/units.h"
#include "energy/cstates.h"
#include "energy/energy_meter.h"
#include "energy/power_model.h"
#include "energy/regimes.h"
#include "server/state_table.h"
#include "vm/vm.h"

namespace eclb::server {

class Server;

/// Observer of one server's externally visible state (load, VM count,
/// failure, C-state).  The cluster's regime index implements this to keep
/// its buckets incremental: every mutator notifies at most once, after the
/// server is back in a consistent state.  Read-only queries never notify.
class ServerStateListener {
 public:
  /// `s` just changed load, VM membership, capacity, failure state or
  /// C-state.  The listener may read any const accessor of `s`.
  virtual void server_state_changed(const Server& s) = 0;

 protected:
  ~ServerStateListener() = default;
};

/// Static configuration of one server.
struct ServerConfig {
  energy::RegimeThresholds thresholds{};       ///< alpha boundaries (Fig. 1).
  std::shared_ptr<const energy::PowerModel> power_model;  ///< b = f(a) curve.
  std::array<energy::CStateSpec, energy::kCStateCount> cstates =
      energy::default_cstate_table();
  common::Seconds reallocation_interval{common::Seconds{60.0}};  ///< tau_k.
};

/// A server in the cluster.  Owns its hosted VMs; placement/eviction is
/// orchestrated by the cluster leader but executed here so the invariants
/// (capacity, energy accounting) live in one place.
///
/// Hot scalar state (load, capacity, wake/alive flags, regime) lives in a
/// ServerStateTable row; this object keeps identity and ownership (VM list,
/// power model, C-state machine, energy meter) and reads/writes its row
/// through inline accessors.  Cluster-owned servers share the cluster's
/// table (slot == id().index()); a standalone server owns a private
/// single-slot table, so unit tests need no ceremony.
class Server {
 public:
  /// Constructs an awake, empty server with its own single-slot state
  /// table.  `config.power_model` must be set.
  Server(common::ServerId id, ServerConfig config);

  /// Constructs an awake, empty server whose hot state lives in a row of
  /// `table` (allocated here via add_slot; the table must outlive the
  /// server).  Pass nullptr to fall back to a private table.
  Server(common::ServerId id, ServerConfig config, ServerStateTable* table);

  // --- identity & static data ---------------------------------------------

  /// Unique id within the cluster.
  [[nodiscard]] common::ServerId id() const { return id_; }
  /// Regime thresholds (alpha boundaries).
  [[nodiscard]] const energy::RegimeThresholds& thresholds() const {
    return thresholds_;
  }
  /// Power curve.
  [[nodiscard]] const energy::PowerModel& power_model() const {
    return *power_model_;
  }
  /// Reallocation interval tau_k.
  [[nodiscard]] common::Seconds reallocation_interval() const {
    return reallocation_interval_;
  }

  /// The state table holding this server's hot fields.
  [[nodiscard]] const ServerStateTable& state_table() const { return *table_; }
  /// This server's row in the state table.
  [[nodiscard]] ServerSlot slot() const { return slot_; }

  // --- load & regime -------------------------------------------------------

  /// Usable CPU capacity, normally 1.0.  A fault-layer derate lowers it
  /// (thermal throttling, a failed DIMM bank); placement and SLA accounting
  /// respect the lowered ceiling.
  [[nodiscard]] double capacity() const { return table_->capacity(slot_); }

  /// Sets the usable capacity to `fraction` of nominal (in (0, 1]).
  void set_capacity(double fraction);

  /// Total CPU demand of hosted VMs (may exceed capacity transiently if
  /// demands grow before the next reallocation; served load is capped).
  [[nodiscard]] double load() const;

  /// Load actually served this interval: min(load, capacity).
  [[nodiscard]] double served_load() const;

  /// Demand beyond capacity (0 when not oversubscribed).
  [[nodiscard]] double overload() const;

  /// Spare capacity up to full utilization: max(0, capacity - load).
  [[nodiscard]] double headroom() const;

  /// Spare capacity up to a target normalized performance `a_target`.
  [[nodiscard]] double headroom_to(double a_target) const;

  /// Current operating regime, from the served load.  Asleep servers have
  /// no regime (nullopt).
  [[nodiscard]] std::optional<energy::Regime> regime() const;

  /// Regime the server *would* be in at hypothetical load `a`.
  [[nodiscard]] energy::Regime regime_at(double a) const {
    return thresholds_.classify(a);
  }

  // --- VM management -------------------------------------------------------

  /// Hosted VMs.
  [[nodiscard]] std::span<const vm::Vm> vms() const { return vms_; }
  /// Number of hosted VMs (the paper's "number of applications").
  [[nodiscard]] std::size_t vm_count() const { return vms_.size(); }
  /// Heap bytes held by the hosted-VM vector (memory accounting).
  [[nodiscard]] std::size_t vm_storage_bytes() const {
    return vms_.capacity() * sizeof(vm::Vm);
  }

  /// Places a VM.  Fails (returns false, VM untouched) when the server is
  /// not awake or the VM's demand exceeds the remaining capacity.
  [[nodiscard]] bool place(vm::Vm vm_instance);

  /// Places a VM unconditionally (initial population; may oversubscribe).
  void force_place(vm::Vm vm_instance);

  /// Removes and returns a VM; nullopt when not hosted here.
  std::optional<vm::Vm> remove(common::VmId id);

  /// Pointer to a hosted VM; nullptr when not here.  The pointer is
  /// invalidated by place/remove.
  [[nodiscard]] const vm::Vm* find(common::VmId id) const;

  /// Attempts a vertical resize of a hosted VM to `new_demand`.  Succeeds
  /// (and commits) iff the VM is hosted here, the server is awake, and the
  /// resulting total load stays within capacity.  Shrinks always succeed.
  [[nodiscard]] bool try_vertical_scale(common::VmId id, double new_demand);

  /// Unconditionally sets a hosted VM's demand (used when a demand increase
  /// must be absorbed even though it oversubscribes; SLA accounting then
  /// sees the overload).  Returns false when the VM is not hosted here.
  bool force_demand(common::VmId id, double new_demand);

  /// force_demand for the whole roster at once: `demands[i]` goes to the VM
  /// at roster position i (vms()[i]).  The load moves by each VM's change in
  /// roster order, exactly as one force_demand per VM in that order would
  /// move it, and the listener is notified once.  Requires one demand per
  /// hosted VM; an empty roster changes nothing and notifies no one.
  void force_demands(std::span<const double> demands);

  /// Removes and returns every hosted VM (crash handling: the cluster takes
  /// custody of the orphans).  Load drops to zero.
  [[nodiscard]] std::vector<vm::Vm> take_all_vms();

  // --- failure -------------------------------------------------------------

  /// True while crashed (fault layer).  A failed server is not awake, hosts
  /// no VMs, draws no power and rejects placements until repair().
  [[nodiscard]] bool failed() const { return !table_->alive(slot_); }

  /// Marks the server failed at `now` (power loss: energy integration stops,
  /// any in-flight C-state transition is voided).  The caller must orphan
  /// the hosted VMs via take_all_vms() first.  No-op when already failed.
  void fail(common::Seconds now);

  /// Returns a failed server to service at `now`: boots awake (C0), empty,
  /// integrating energy again.  Requires failed().
  void repair(common::Seconds now);

  // --- sleep states --------------------------------------------------------

  /// True when in C0 and no transition is in flight.
  [[nodiscard]] bool awake(common::Seconds now) const;

  /// True when parked in (or entering) a sleep state.
  [[nodiscard]] bool asleep(common::Seconds now) const;

  /// True while a C-state transition (either direction) is in flight.
  [[nodiscard]] bool in_transition(common::Seconds now) const;

  /// True while a transition target is committed and not yet settled.  This
  /// is in_transition() without the clock: a transition stays pending until
  /// settle() is explicitly called, so the answer is time-independent --
  /// which is what lets the regime index classify servers incrementally.
  [[nodiscard]] bool transition_pending() const;

  /// Current C-state (source state while transitioning).
  [[nodiscard]] energy::CState cstate() const { return cstates_.state(); }

  /// The C-state the server is in or committed to: the transition target
  /// while one is in flight, else the settled state.  This is the right
  /// state for accounting ("how many servers are parked / deep asleep").
  [[nodiscard]] energy::CState effective_cstate() const;

  /// Begins entering sleep state `target` (C1, C3 or C6).  Requires the
  /// server to be awake and empty of VMs.  Returns the time the state is
  /// reached.
  common::Seconds begin_sleep(energy::CState target, common::Seconds now);

  /// Moves a sleeping server directly into a deeper sleep state (e.g. a
  /// C1-parked server demoted to C3/C6 by the leader).  Requires a settled
  /// sleep state shallower than `target`.  Returns the completion time.
  common::Seconds deepen_sleep(energy::CState target, common::Seconds now);

  /// Begins waking to C0.  Requires the server to be asleep (settled).
  /// Charges the wake energy.  Returns the time the server becomes usable.
  common::Seconds begin_wake(common::Seconds now);

  /// Completes any due C-state transition; call when time has advanced.
  void settle(common::Seconds now);

  // --- power & energy ------------------------------------------------------

  /// Instantaneous power draw at `now` given the current load and C-state.
  [[nodiscard]] common::Watts power(common::Seconds now) const;

  /// Re-points the energy meter at the current power level; call after any
  /// load or state change, passing the current time.
  void update_energy(common::Seconds now);

  /// Fast-path update_energy for a server with no transition pending: the
  /// power level is then time-independent and pre-computed into the state
  /// table's static_power column, so this skips the C-state machinery and
  /// the virtual power-model call.  Bit-identical to update_energy(now).
  void update_energy_static(common::Seconds now);

  /// Energy consumed since construction.
  [[nodiscard]] common::Joules energy_used() const { return meter_.total(); }

  /// Adds a lump-sum energy charge (e.g. this server's share of a
  /// migration).
  void charge_energy(common::Joules amount) { meter_.charge(amount); }

  // --- change notification -------------------------------------------------

  /// Installs (or clears, with nullptr) the state-change listener.  The
  /// listener must outlive the server or be cleared first.
  void set_state_listener(ServerStateListener* listener) {
    listener_ = listener;
  }

 private:
  /// Invoked at the end of every mutator that changed observable state.
  /// Syncs the derived state-table columns first, so listeners (and any
  /// fleet-wide pass between mutations) see exact derived state.
  void notify_changed() {
    sync_derived();
    if (listener_ != nullptr) listener_->server_state_changed(*this);
  }

  /// Recomputes the derived columns of this server's table row (vm count,
  /// wake/pending flags, C-states, regimes, sleep depth, static power).
  void sync_derived();

  /// Instantaneous power in watts assuming no transition is pending; the
  /// value cached in the static_power column.
  [[nodiscard]] double compute_static_power() const;

  common::ServerId id_;
  energy::RegimeThresholds thresholds_;
  std::shared_ptr<const energy::PowerModel> power_model_;
  common::Seconds reallocation_interval_{};
  std::vector<vm::Vm> vms_;
  /// Set only for standalone servers (no shared table supplied); heap
  /// allocation keeps the row's address stable across Server moves.
  std::unique_ptr<ServerStateTable> own_table_;
  ServerStateTable* table_{nullptr};
  ServerSlot slot_{0};
  energy::CStateMachine cstates_;
  energy::EnergyMeter meter_;
  ServerStateListener* listener_{nullptr};
};

}  // namespace eclb::server
