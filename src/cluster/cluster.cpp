#include "cluster/cluster.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "cluster/index/regime_index.h"
#include "cluster/protocol/engine.h"
#include "cluster/protocol/view.h"
#include "common/assert.h"
#include "energy/server_power_data.h"

namespace eclb::cluster {

namespace {
constexpr double kEps = 1e-9;

using WallClock = std::chrono::steady_clock;

double wall_seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}
}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      placement_(policy::make_placement(config_.placement)),
      engine_(std::make_unique<protocol::ProtocolEngine>()) {
  ECLB_ASSERT(config_.server_count > 0, "Cluster: need at least one server");
  ECLB_ASSERT(config_.initial_load_min <= config_.initial_load_max,
              "Cluster: invalid initial load range");
  populate();
  membership_.form(servers_.size(), common::ServerId{0});
  index_ = std::make_unique<index::RegimeIndex>(
      std::span<const server::Server>(servers_));
  for (auto& s : servers_) s.set_state_listener(index_.get());
  energy_at_last_step_ = total_energy();
}

Cluster::~Cluster() = default;

void Cluster::populate() {
  servers_.reserve(config_.server_count);
  state_.reserve(config_.server_count);
  auto volume_model = std::make_shared<energy::LinearPowerModel>(
      config_.peak_power, config_.idle_power_fraction);
  // Hardware mix for the heterogeneous option (Table 1 peaks; idle
  // fractions degrade slightly up the range -- bigger boxes idle worse).
  auto mid_model = std::make_shared<energy::LinearPowerModel>(
      energy::default_peak_power(energy::ServerClass::kMidRange), 0.55);
  auto high_model = std::make_shared<energy::LinearPowerModel>(
      energy::default_peak_power(energy::ServerClass::kHighEnd), 0.60);
  for (std::size_t i = 0; i < config_.server_count; ++i) {
    server::ServerConfig sc;
    sc.thresholds = energy::RegimeThresholds::sample(rng_, config_.threshold_ranges);
    sc.power_model = volume_model;
    if (config_.heterogeneous_hardware) {
      const double roll = rng_.uniform01();
      if (roll > 0.95) {
        sc.power_model = high_model;
      } else if (roll > 0.70) {
        sc.power_model = mid_model;
      }
    }
    sc.reallocation_interval = config_.reallocation_interval;
    // Slots are allocated in id order, so slot == id.index() fleet-wide.
    servers_.emplace_back(common::ServerId{i}, std::move(sc), &state_);
  }
  // Initial population: fill each server with applications until its load
  // reaches a uniformly drawn target (Section 5's experimental setup).
  for (auto& s : servers_) {
    const double target = rng_.uniform(config_.initial_load_min,
                                       config_.initial_load_max);
    while (s.load() + kEps < target) {
      const double remaining = target - s.load();
      double demand = rng_.uniform(config_.app_demand_min, config_.app_demand_max);
      demand = std::min(demand, remaining);
      if (demand < 0.005) break;  // avoid dust-sized applications
      (void)spawn_vm(s, common::AppId{next_app_id_++}, demand, /*force=*/true);
    }
  }
}

common::VmId Cluster::spawn_vm(server::Server& host, common::AppId app,
                               double demand, bool force) {
  const common::VmId id{next_vm_id_++};
  vm::Vm instance(id, app, demand);
  if (force) {
    host.force_place(std::move(instance));
  } else {
    const bool ok = host.place(std::move(instance));
    ECLB_ASSERT(ok, "spawn_vm: placement rejected after leader admitted it");
  }
  if (growth_.size() <= id.value) growth_.resize(id.value + 1);
  growth_[id.value] = {vm::Application::sample_growth(rng_, config_.lambda_min,
                                                      config_.lambda_max),
                       true};
  return id;
}

double Cluster::total_demand() const {
  // Same accumulation order as the legacy per-server walk (slot == id), so
  // the sum is bit-identical -- it just streams one contiguous column.
  double total = 0.0;
  for (const double load : state_.loads()) total += load;
  return total;
}

std::size_t Cluster::total_vms() const { return index_->total_vms(); }

double Cluster::usable_capacity() const {
  // Failed servers contribute nothing, derated servers their lowered
  // ceiling.  Fault-free this sums to exactly the server count (1.0 each),
  // preserving the historical load_fraction definition bit for bit.
  double capacity = 0.0;
  const std::span<const std::uint8_t> alive = state_.alive_flags();
  const std::span<const double> caps = state_.capacities();
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (alive[i] != 0) capacity += caps[i];
  }
  return capacity;
}

double Cluster::load_fraction() const {
  // Guarded: an all-failed cluster has zero usable capacity, and 0/0 must
  // read as "no load" (0.0), never NaN.
  const double capacity = usable_capacity();
  if (capacity <= 0.0) return 0.0;
  return total_demand() / capacity;
}

std::size_t Cluster::sleeping_count() const { return index_->sleeping_count(); }

std::size_t Cluster::parked_count() const { return index_->parked_count(); }

std::size_t Cluster::deep_sleeping_count() const {
  return index_->deep_sleeping_count();
}

energy::RegimeHistogram Cluster::regime_histogram() const {
  return index_->regime_histogram();
}

common::Joules Cluster::total_energy() const {
  common::Joules total = traffic_energy_;
  for (const auto& s : servers_) total += s.energy_used();
  return total;
}

const vm::DemandGrowthSpec* Cluster::growth_of(common::VmId id) const {
  if (id.value >= growth_.size() || !growth_[id.value].valid) return nullptr;
  return &growth_[id.value].spec;
}

common::VmId Cluster::inject_vm(common::ServerId server, common::AppId app,
                                double demand) {
  return spawn_vm(server_ref(server), app, demand, /*force=*/true);
}

std::optional<common::ServerId> Cluster::pick_placement(
    double demand, common::ServerId exclude) {
  // Horizontal capacity is only brokered on the quorum side; minority
  // sub-leaders run degraded (vertical/local scaling only).
  if (degraded(exclude)) return std::nullopt;
  const policy::PlacementFilter filter = side_filter(membership_.quorum());
  if (placement_ == nullptr) {
    return index_->find_tiered_target(
        demand, exclude, policy::PlacementTier::kStaySuboptimal, &filter);
  }
  return placement_->pick(servers_, now(), demand, exclude, rng_, &filter);
}

policy::PlacementFilter Cluster::side_filter(std::int32_t side) const {
  if (!membership_.partitioned()) return {};
  return {&membership_.groups(), side};
}

bool Cluster::accept_external(common::AppId app, double demand) {
  if (demand <= 0.0) return false;
  const auto target_id = pick_placement(demand, common::ServerId{});
  if (!target_id.has_value()) return false;
  (void)start_vm(*target_id, app, demand);
  return true;
}

common::VmId Cluster::start_vm(common::ServerId target_id, common::AppId app,
                               double demand) {
  auto& target = server_ref(target_id);
  const common::VmId new_id = spawn_vm(target, app, demand, /*force=*/false);
  const vm::ScalingCost cost =
      vm::horizontal_start_cost(*target.find(new_id), config_.costs);
  in_cluster_cost_ += cost;
  target.charge_energy(cost.energy);
  // A fresh start moves no VM image: the negotiation messages are counted,
  // and their j_k energy is already in the start cost above, so no traffic
  // energy is charged for them.
  charge_message(MessageKind::kTransferRequest,
                 config_.costs.messages_per_negotiation,
                 /*network_energy=*/false);
  return new_id;
}

void Cluster::charge_message(MessageKind kind, std::size_t n,
                             bool network_energy) {
  messages_.record(kind, n, config_.costs.energy_per_message);
  if (network_energy) {
    traffic_energy_ +=
        config_.costs.energy_per_message * static_cast<double>(n);
  }
}

server::Server& Cluster::server_ref(common::ServerId id) {
  ECLB_ASSERT(id.valid() && id.index() < servers_.size(), "server_ref: bad id");
  return servers_[id.index()];
}

// --- fault tolerance --------------------------------------------------------

void Cluster::install_faults(FaultRuntime* runtime) {
  ECLB_ASSERT(faults_ == nullptr || runtime == nullptr,
              "install_faults: a fault runtime is already installed");
  if (heartbeat_.active()) (void)heartbeat_.cancel();
  faults_ = runtime;
  if (faults_ == nullptr) return;
  // A zero period disables the heartbeat protocol entirely -- the injector
  // reports zero for an empty plan so arming it stays free of side effects.
  const common::Seconds period = faults_->heartbeat_period();
  if (period.value > 0.0) {
    heartbeat_ = sim_.schedule_every(
        period, [this](sim::Simulation&) { heartbeat_tick(); });
  }
}

void Cluster::crash_server(common::ServerId id) {
  auto& s = server_ref(id);
  if (s.failed()) return;
  const common::Seconds when = sim_.now();
  s.settle(when);
  auto displaced = s.take_all_vms();
  s.fail(when);
  ++failed_count_;
  std::size_t orphaned = 0;
  for (auto& v : displaced) {
    // The replacement VM gets a fresh id and growth spec on re-placement.
    retire_growth(v.id());
    if (take_shadow_entry(v.id())) {
      // A shadow lost to a crash is not re-placed: its original still runs
      // on the other side of the partition, so no service was lost and a
      // restart would just re-create the duplicate.
      continue;
    }
    orphans_.push_back({v.app(), v.demand(), id, when});
    ++orphaned;
  }
  if (orphaned > 0) {
    auto& episode = crash_episodes_[id];
    if (episode.outstanding == 0) episode.crashed_at = when;
    episode.outstanding += orphaned;
  }
  recorder_.server_crashed(id);
  SideState& side = membership_.side_of(id);
  if (id == side.leader && !side.leader_down) {
    side.leader_down = true;
    side.leader_down_since = when;
    side.missed_heartbeats = 0;
  }
}

void Cluster::recover_server(common::ServerId id) {
  auto& s = server_ref(id);
  if (!s.failed()) return;
  s.repair(sim_.now());
  ECLB_ASSERT(failed_count_ > 0, "recover_server: failure count underflow");
  --failed_count_;
  recorder_.server_recovered(id);
  SideState& side = membership_.side_of(id);
  if (id == side.leader && side.leader_down) {
    // The leader host came back before its side elected a successor.
    side.leader_down = false;
    side.missed_heartbeats = 0;
  }
}

void Cluster::derate_server(common::ServerId id, double capacity) {
  auto& s = server_ref(id);
  s.set_capacity(capacity);
  // Served load may have changed; re-point the meter at the new power level.
  s.update_energy(sim_.now());
  recorder_.derated(id, capacity);
}

void Cluster::heartbeat_tick() {
  if (faults_ == nullptr) return;
  // One liveness probe per side per beat across the star fabric, priced
  // like any other control exchange (one side -- the whole-fabric case --
  // keeps the historical single probe).
  for (std::size_t g = 0; g < membership_.side_count(); ++g) {
    const auto group = static_cast<std::int32_t>(g);
    charge_message(MessageKind::kHeartbeat, 1, /*network_energy=*/true);
    SideState& side = membership_.side(group);
    if (!side.leader_down) {
      side.missed_heartbeats = 0;
      continue;
    }
    ++side.missed_heartbeats;
    if (side.missed_heartbeats >= faults_->failover_after_missed()) {
      elect_side_leader(group, side.provisional);
    }
  }
}

void Cluster::elect_side_leader(std::int32_t group, bool provisional) {
  const common::Seconds when = sim_.now();
  const server::Server* winner = nullptr;
  for (const auto& s : servers_) {
    if (membership_.group_of(s.id()) != group) continue;
    if (!s.failed() && s.awake(when)) {
      winner = &s;
      break;
    }
  }
  if (winner == nullptr) {
    // No awake survivor on this side: its lowest-id live member takes the
    // role; the protocol will wake it like any other sleeper.
    for (const auto& s : servers_) {
      if (membership_.group_of(s.id()) != group) continue;
      if (!s.failed()) {
        winner = &s;
        break;
      }
    }
  }
  SideState& side = membership_.side(group);
  // The whole side is down: the role stays with the dead incumbent (still
  // marked down) exactly as the pre-partition protocol behaved.
  if (winner == nullptr) return;
  const bool was_down = side.leader_down;
  const common::Seconds down_since = side.leader_down_since;
  side.leader = winner->id();
  side.leader_down = false;
  side.missed_heartbeats = 0;
  // Raft-style: every successful election moves its side to a fresh epoch
  // from the shared monotonic counter, fencing the predecessor's in-flight
  // commands.
  side.epoch = membership_.next_epoch();
  side.provisional = provisional;
  // Election broadcast among the side's live members.
  std::size_t live = 0;
  for (const auto& s : servers_) {
    if (membership_.group_of(s.id()) == group && !s.failed()) ++live;
  }
  charge_message(MessageKind::kElection, live, /*network_energy=*/true);
  recorder_.failover(side.leader, was_down ? std::optional(when - down_since)
                                           : std::nullopt);
}

bool Cluster::do_migrate(server::Server& source, common::VmId vm_id,
                         common::ServerId target_id, MigrationCause cause) {
  auto& target = server_ref(target_id);
  const vm::Vm* v = source.find(vm_id);
  if (v == nullptr || !target.awake(sim_.now())) return false;
  if (target.load() + v->demand() > target.capacity() + kEps) return false;

  const vm::ScalingCost cost = vm::horizontal_migration_cost(*v, config_.costs);
  const vm::MigrationCost mig = vm::migrate_cost(*v, config_.costs.migration);

  auto moved = source.remove(vm_id);
  ECLB_ASSERT(moved.has_value(), "migrate: VM vanished from source");
  const bool placed = target.place(std::move(*moved));
  ECLB_ASSERT(placed, "migrate: target rejected a pre-checked VM");

  source.charge_energy(mig.source_energy);
  target.charge_energy(mig.target_energy);
  traffic_energy_ += mig.network_energy;
  in_cluster_cost_ += cost;
  charge_message(MessageKind::kTransferRequest,
                 config_.costs.messages_per_negotiation,
                 /*network_energy=*/true);
  recorder_.migration(cause, target_id);
  return true;
}

void Cluster::begin_wake_now(common::ServerId id) {
  auto& s = server_ref(id);
  const common::Seconds done = s.begin_wake(sim_.now());
  schedule_transition(id, done);
  last_wake_interval_[id] = interval_index_;
  // Flap metric (always measured, whatever path the wake took): a wake this
  // soon after a deep sleep is the other half of the oscillation.
  const auto slept = last_sleep_interval_.find(id);
  if (slept != last_sleep_interval_.end() &&
      interval_index_ - slept->second <=
          config_.hysteresis.flap_window_intervals) {
    recorder_.wake_sleep_flap(id);
  }
  recorder_.wake_begun(id);
}

void Cluster::send_wake(common::ServerId id, std::size_t attempt,
                        Epoch issued) {
  charge_message(MessageKind::kWakeCommand, 1, /*network_energy=*/true);
  // The command crosses the leader link: it can be lost (the retry protocol
  // takes over off-round) or delayed (the wake starts late on the kernel).
  if (faults_ != nullptr && !faults_->deliver(MessageKind::kWakeCommand, id)) {
    recorder_.message_dropped(MessageKind::kWakeCommand, id);
    schedule_wake_retry(id, attempt + 1, issued);
    return;
  }
  // Every send, first or retried, pays the link's propagation delay.
  const common::Seconds delay =
      faults_ != nullptr ? faults_->link_delay(id) : common::Seconds{0.0};
  if (delay.value <= 0.0) {
    begin_wake_now(id);
    return;
  }
  sim_.schedule_in(delay, [this, id, issued](sim::Simulation&) {
    if (wake_still_due(id, issued)) begin_wake_now(id);
  });
}

bool Cluster::wake_still_due(common::ServerId id, Epoch issued) {
  // Epoch fence: a deferred command belongs to the epoch that issued it;
  // once the receiver's side moved on (election, partition, reconcile) the
  // stale command is dropped and counted.
  if (membership_.is_stale(issued, id)) {
    recorder_.command_fenced(MessageKind::kWakeCommand, id);
    return false;
  }
  auto& s = server_ref(id);
  const common::Seconds now = sim_.now();
  s.settle(now);
  // Moot when the server crashed, woke another way, or is mid-flight.
  return !(s.failed() || s.awake(now) || s.in_transition(now));
}

void Cluster::schedule_wake_retry(common::ServerId id, std::size_t attempt,
                                  Epoch issued) {
  if (faults_ == nullptr || attempt > faults_->max_retries()) return;
  sim_.schedule_in(
      faults_->retry_backoff(attempt),
      [this, id, attempt, issued](sim::Simulation&) {
        if (faults_ == nullptr || !wake_still_due(id, issued)) return;
        recorder_.message_retried(MessageKind::kWakeCommand, id);
        send_wake(id, attempt, issued);
      });
}

bool Cluster::send_transfer(common::ServerId source, common::VmId vm,
                            common::ServerId target, MigrationCause cause,
                            std::size_t attempt, Epoch issued) {
  if (faults_ != nullptr) {
    if (!faults_->deliver(MessageKind::kTransferRequest, target)) {
      // The negotiation went onto the wire and was lost: its message cost is
      // sunk, and the retry protocol takes over off-round.
      charge_message(MessageKind::kTransferRequest,
                     config_.costs.messages_per_negotiation,
                     /*network_energy=*/true);
      recorder_.message_dropped(MessageKind::kTransferRequest, target);
      schedule_transfer_retry(source, vm, target, cause, attempt + 1, issued);
      return false;
    }
    if (faults_->migration_fails(source, target)) {
      // Negotiated, then the copy aborted mid-flight: pay the messages, the
      // VM stays on the source.
      charge_message(MessageKind::kTransferRequest,
                     config_.costs.messages_per_negotiation,
                     /*network_energy=*/true);
      recorder_.migration_failed(source);
      return false;
    }
  }
  // do_migrate charges this attempt's negotiation messages itself.
  return do_migrate(server_ref(source), vm, target, cause);
}

void Cluster::schedule_transfer_retry(common::ServerId source, common::VmId vm,
                                      common::ServerId target,
                                      MigrationCause cause,
                                      std::size_t attempt, Epoch issued) {
  if (faults_ == nullptr || attempt > faults_->max_retries()) return;
  sim_.schedule_in(
      faults_->retry_backoff(attempt),
      [this, source, vm, target, cause, attempt, issued](sim::Simulation& sm) {
        if (faults_ == nullptr) return;
        // Epoch fence (see wake_still_due): the receiving end judges
        // staleness against its side's current epoch.  A transfer never
        // crosses an active partition either.
        if (membership_.is_stale(issued, target) ||
            (membership_.partitioned() &&
             membership_.group_of(source) != membership_.group_of(target))) {
          recorder_.command_fenced(MessageKind::kTransferRequest, target);
          return;
        }
        auto& src = server_ref(source);
        auto& tgt = server_ref(target);
        const vm::Vm* v = src.find(vm);
        // Moot when the VM moved or vanished, or either endpoint is unusable.
        if (v == nullptr || src.failed() || !tgt.awake(sm.now())) return;
        if (tgt.load() + v->demand() > tgt.capacity() + kEps) return;
        recorder_.message_retried(MessageKind::kTransferRequest, target);
        (void)send_transfer(source, vm, target, cause, attempt, issued);
      });
}

void Cluster::replace_orphan(common::ServerId target_id, const OrphanVm& orphan) {
  (void)start_vm(target_id, orphan.app, orphan.demand);
  recorder_.orphan_replaced(target_id);
  close_crash_outstanding(orphan.origin);
}

void Cluster::close_crash_outstanding(common::ServerId origin) {
  const auto it = crash_episodes_.find(origin);
  if (it != crash_episodes_.end() && --it->second.outstanding == 0) {
    // Last displaced VM running again: service restored, MTTR sample closed.
    recorder_.crash_repaired(sim_.now() - it->second.crashed_at);
    crash_episodes_.erase(it);
  }
}

bool Cluster::take_shadow_entry(common::VmId vm) {
  for (auto it = shadow_ledger_.begin(); it != shadow_ledger_.end(); ++it) {
    if (it->shadow == vm) {
      shadow_ledger_.erase(it);
      return true;
    }
  }
  return false;
}

// --- partition tolerance -----------------------------------------------------

std::int32_t Cluster::begin_partition(const std::vector<std::int32_t>& group_of) {
  if (membership_.partitioned() || reconcile_pending_) return -1;
  ECLB_ASSERT(group_of.size() == servers_.size(),
              "begin_partition: group map size mismatch");
  std::int32_t side_count = 0;
  for (const auto g : group_of) {
    ECLB_ASSERT(g >= 0, "begin_partition: negative group index");
    side_count = std::max(side_count, g + 1);
  }
  if (side_count < 2) return -1;
  std::vector<bool> live(servers_.size());
  const std::span<const std::uint8_t> alive = state_.alive_flags();
  for (std::size_t i = 0; i < servers_.size(); ++i) live[i] = alive[i] != 0;
  const std::int32_t quorum = quorum_group(group_of, live);

  const SideState old = membership_.side(0);
  membership_.split(group_of, quorum, static_cast<std::size_t>(side_count));
  recorder_.partition_started(static_cast<std::size_t>(side_count));

  for (std::int32_t g = 0; g < side_count; ++g) {
    if (g == quorum && old.leader.valid() &&
        membership_.group_of(old.leader) == g &&
        !server_ref(old.leader).failed()) {
      // The quorum keeps the committed epoch and its incumbent leader; its
      // heartbeat state carries over untouched.
      SideState& side = membership_.side(g);
      side.leader = old.leader;
      side.epoch = old.epoch;
      side.provisional = false;
      side.leader_down = old.leader_down;
      side.leader_down_since = old.leader_down_since;
      side.missed_heartbeats = old.missed_heartbeats;
      continue;
    }
    // Minority sides -- and a quorum that lost its leader across the split
    // -- elect immediately; minorities are provisional (sub-leaders that
    // yield at reconciliation unless they hold the highest live epoch).
    elect_side_leader(g, /*provisional=*/g != quorum);
  }
  shadow_restart_minority();
  return quorum;
}

void Cluster::heal_partition() {
  if (!membership_.partitioned() || reconcile_pending_) return;
  reconcile_pending_ = true;
  heal_time_ = sim_.now();
  recorder_.partition_healed();
}

void Cluster::shadow_restart_minority() {
  if (!config_.partition_shadow_restart) return;
  // The quorum side cannot reach minority-hosted applications, so it
  // restarts replacements for them on its own side -- the split-brain
  // divergence the reconciliation pass later resolves.  Deterministic scan
  // order (server id, then VM placement order) keeps the run reproducible.
  for (const auto& s : servers_) {
    if (membership_.in_quorum(s.id()) || s.failed()) continue;
    for (const auto& v : s.vms()) {
      const auto target = pick_placement(v.demand(), common::ServerId{});
      if (!target.has_value()) continue;  // quorum full: wait out the split
      const common::VmId shadow = start_vm(*target, v.app(), v.demand());
      shadow_ledger_.push_back({v.app(), s.id(), v.id(), shadow});
      recorder_.shadow_started(*target);
    }
  }
}

std::optional<std::string> Cluster::self_audit() const {
  if (!membership_.partitioned()) {
    if (reconcile_pending_) return "reconcile pending on a whole fabric";
    if (!shadow_ledger_.empty()) {
      return "shadow ledger not empty outside a partition";
    }
    const SideState& side = membership_.side(0);
    if (side.epoch != membership_.highest_epoch()) {
      return "whole-fabric leader not at the highest epoch";
    }
  }
  std::unordered_set<common::VmId> seen;
  for (const auto& s : servers_) {
    for (const auto& v : s.vms()) {
      if (!seen.insert(v.id()).second) {
        return "VM id double-placed across the fleet";
      }
    }
  }
  return index_->self_check();
}

void Cluster::schedule_transition(common::ServerId id, common::Seconds done) {
  // Settling at the exact completion instant keeps the piecewise-constant
  // energy integration correct regardless of where the next round falls.
  sim_.schedule_at(done, [this, id](sim::Simulation& sm) {
    auto& s = server_ref(id);
    s.settle(sm.now());
    s.update_energy(sm.now());
  });
}

IntervalReport Cluster::step() {
  const common::Seconds boundary = sim_.now() + config_.reallocation_interval;
  IntervalReport report;
  // Transitions completing at or before the boundary were scheduled earlier,
  // so the kernel settles them (in completion order) before the round fires.
  sim_.schedule_at(boundary,
                   [this, &report](sim::Simulation&) { report = run_round(); });
  sim_.run_until(boundary);
  return report;
}

void Cluster::attach_observer(ClusterObserver* observer) {
  ECLB_ASSERT(observer != nullptr, "attach_observer: null observer");
  observers_.push_back(observer);
  recorder_.set_sink([this](const ProtocolEvent& event) {
    for (ClusterObserver* o : observers_) o->on_event(event);
  });
}

void Cluster::detach_observers() {
  observers_.clear();
  recorder_.set_sink(nullptr);
}

void Cluster::notify_phase(std::string_view phase, double wall_seconds) {
  for (ClusterObserver* o : observers_) o->on_phase(phase, wall_seconds);
}

void Cluster::sweep_settle_and_energy(common::Seconds now, bool settle) {
  // Fleet-wide energy step, split on the pending flag: servers with no
  // C-state transition in flight -- virtually the whole fleet -- have a
  // time-independent power level pre-computed in the table's static_power
  // column, so their meters advance without touching the C-state machinery
  // or the virtual power model.  Pending servers (and, when `settle` is
  // set, any transition that just completed) take the exact legacy path.
  // settle() on a non-pending server is a no-op, so skipping it changes
  // nothing; the visit order is the legacy order, so energy accumulation is
  // bit-identical.
  const std::span<const std::uint8_t> pending = state_.pending_flags();
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (pending[i] != 0) {
      if (settle) servers_[i].settle(now);
      servers_[i].update_energy(now);
    } else {
      servers_[i].update_energy_static(now);
    }
  }
}

index::PipelineStats Cluster::pipeline_stats() const {
  return index_->pipeline_stats();
}

void Cluster::set_pipeline_phase_timing(bool on) { index_->set_phase_timing(on); }

ClusterMemoryStats Cluster::memory_stats() const {
  ClusterMemoryStats m;
  m.state_table_bytes = state_.memory_bytes();
  m.index_bytes = index_->memory_bytes();
  m.server_objects_bytes = servers_.capacity() * sizeof(server::Server);
  for (const auto& s : servers_) m.vm_storage_bytes += s.vm_storage_bytes();
  m.total_bytes = m.state_table_bytes + m.index_bytes + m.server_objects_bytes +
                  m.vm_storage_bytes;
  m.bytes_per_server =
      servers_.empty() ? 0.0
                       : static_cast<double>(m.total_bytes) /
                             static_cast<double>(servers_.size());
  return m;
}

IntervalReport Cluster::run_round() {
  // Phase timing uses the wall clock and only runs while observers are
  // attached; it never feeds back into the simulation.
  const bool observed = !observers_.empty();
  const auto round_start = observed ? WallClock::now() : WallClock::time_point{};

  recorder_.begin_interval(interval_index_++);
  for (ClusterObserver* o : observers_) {
    o->on_interval_begin(interval_index_ - 1, sim_.now());
  }

  const common::Seconds round_now = sim_.now();
  const auto settle_start = observed ? WallClock::now() : WallClock::time_point{};
  sweep_settle_and_energy(round_now, /*settle=*/true);
  if (observed) notify_phase("cstate_settle", wall_seconds_since(settle_start));

  protocol::ClusterView view(*this, engine_->wake_action());
  engine_->run(view);

  sweep_settle_and_energy(round_now, /*settle=*/false);

  FleetSnapshot snapshot;
  snapshot.sleeping_servers = sleeping_count();
  snapshot.parked_servers = parked_count();
  snapshot.deep_sleeping_servers = deep_sleeping_count();
  snapshot.failed_servers = failed_count_;
  snapshot.regimes = regime_histogram();
  const common::Joules energy_now = total_energy();
  snapshot.interval_energy = energy_now - energy_at_last_step_;
  energy_at_last_step_ = energy_now;

  const IntervalReport report = recorder_.finish(snapshot);
  for (ClusterObserver* o : observers_) o->on_interval_end(report, sim_.now());
  if (observed) notify_phase("round", wall_seconds_since(round_start));
  return report;
}

}  // namespace eclb::cluster
