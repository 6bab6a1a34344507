#include "server/server.h"

#include <algorithm>

#include "common/assert.h"

namespace eclb::server {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

Server::Server(common::ServerId id, ServerConfig config)
    : Server(id, std::move(config), nullptr) {}

Server::Server(common::ServerId id, ServerConfig config, ServerStateTable* table)
    : id_(id),
      thresholds_(config.thresholds),
      power_model_(std::move(config.power_model)),
      reallocation_interval_(config.reallocation_interval),
      cstates_(config.cstates),
      meter_(common::Seconds{0.0}, common::Watts{0.0}) {
  ECLB_ASSERT(id_.valid(), "Server: invalid id");
  ECLB_ASSERT(power_model_ != nullptr, "Server: power model required");
  ECLB_ASSERT(thresholds_.valid(), "Server: invalid regime thresholds");
  ECLB_ASSERT(reallocation_interval_.value > 0.0,
              "Server: reallocation interval must be positive");
  if (table == nullptr) {
    own_table_ = std::make_unique<ServerStateTable>();
    table = own_table_.get();
  }
  table_ = table;
  slot_ = table_->add_slot();
  sync_derived();
  meter_ = energy::EnergyMeter(common::Seconds{0.0}, power(common::Seconds{0.0}));
}

void Server::set_capacity(double fraction) {
  ECLB_ASSERT(fraction > 0.0 && fraction <= 1.0,
              "set_capacity: fraction must be in (0, 1]");
  table_->set_capacity(slot_, fraction);
  notify_changed();
}

double Server::load() const { return table_->load(slot_); }

double Server::served_load() const { return std::min(load(), capacity()); }

double Server::overload() const { return std::max(0.0, load() - capacity()); }

std::optional<energy::Regime> Server::regime() const {
  if (failed() || cstates_.state() != energy::CState::kC0) return std::nullopt;
  return thresholds_.classify(served_load());
}

bool Server::place(vm::Vm vm_instance) {
  if (failed()) return false;
  if (cstates_.state() != energy::CState::kC0 || cstates_.transition_target()) {
    return false;
  }
  if (load() + vm_instance.demand() > capacity() + kEps) return false;
  table_->set_load(slot_, load() + vm_instance.demand());
  vms_.push_back(std::move(vm_instance));
  notify_changed();
  return true;
}

void Server::force_place(vm::Vm vm_instance) {
  table_->set_load(slot_, load() + vm_instance.demand());
  vms_.push_back(std::move(vm_instance));
  notify_changed();
}

std::optional<vm::Vm> Server::remove(common::VmId id) {
  auto it = std::find_if(vms_.begin(), vms_.end(),
                         [id](const vm::Vm& v) { return v.id() == id; });
  if (it == vms_.end()) return std::nullopt;
  vm::Vm out = std::move(*it);
  vms_.erase(it);
  table_->set_load(slot_, load() - out.demand());
  if (vms_.empty()) table_->set_load(slot_, 0.0);  // cancel float drift at the anchor
  notify_changed();
  return out;
}

const vm::Vm* Server::find(common::VmId id) const {
  auto it = std::find_if(vms_.begin(), vms_.end(),
                         [id](const vm::Vm& v) { return v.id() == id; });
  return it == vms_.end() ? nullptr : &*it;
}

bool Server::try_vertical_scale(common::VmId id, double new_demand) {
  auto it = std::find_if(vms_.begin(), vms_.end(),
                         [id](const vm::Vm& v) { return v.id() == id; });
  if (it == vms_.end()) return false;
  if (failed() || cstates_.state() != energy::CState::kC0) return false;
  const double delta = new_demand - it->demand();
  if (delta > 0.0 && load() + delta > capacity() + kEps) return false;
  const double before = it->demand();
  it->set_demand(new_demand);
  table_->set_load(slot_, load() + (it->demand() - before));
  notify_changed();
  return true;
}

bool Server::force_demand(common::VmId id, double new_demand) {
  auto it = std::find_if(vms_.begin(), vms_.end(),
                         [id](const vm::Vm& v) { return v.id() == id; });
  if (it == vms_.end()) return false;
  const double before = it->demand();
  it->set_demand(new_demand);
  table_->set_load(slot_, load() + (it->demand() - before));
  notify_changed();
  return true;
}

void Server::force_demands(std::span<const double> demands) {
  ECLB_ASSERT(demands.size() == vms_.size(),
              "force_demands: one demand per hosted VM");
  if (vms_.empty()) return;
  double total = load();
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    const double before = vms_[i].demand();
    vms_[i].set_demand(demands[i]);
    total = total + (vms_[i].demand() - before);
  }
  table_->set_load(slot_, total);
  notify_changed();
}

std::vector<vm::Vm> Server::take_all_vms() {
  std::vector<vm::Vm> out = std::move(vms_);
  vms_.clear();
  table_->set_load(slot_, 0.0);
  notify_changed();
  return out;
}

void Server::fail(common::Seconds now) {
  if (failed()) return;
  ECLB_ASSERT(vms_.empty(), "fail: orphan hosted VMs via take_all_vms() first");
  table_->set_alive(slot_, false);
  // Power loss voids any in-flight C-state transition; a stale settle event
  // scheduled for it finds nothing to complete (settle is a no-op then).
  cstates_.reset();
  update_energy(now);
  notify_changed();
}

void Server::repair(common::Seconds now) {
  ECLB_ASSERT(failed(), "repair: server is not failed");
  table_->set_alive(slot_, true);
  cstates_.reset();
  update_energy(now);
  notify_changed();
}

bool Server::awake(common::Seconds now) const {
  // The table's awake flag is time-independent (a transition stays pending
  // until settle()), so `now` no longer enters the answer; the signature is
  // kept for call-site stability.
  (void)now;
  return table_->awake(slot_);
}

bool Server::asleep(common::Seconds now) const { return !awake(now); }

energy::CState Server::effective_cstate() const {
  return cstates_.transition_target().value_or(cstates_.state());
}

bool Server::in_transition(common::Seconds now) const {
  return cstates_.transitioning(now) || cstates_.transition_target().has_value();
}

bool Server::transition_pending() const {
  return cstates_.transition_target().has_value();
}

common::Seconds Server::begin_sleep(energy::CState target, common::Seconds now) {
  ECLB_ASSERT(target != energy::CState::kC0, "begin_sleep: target must be a sleep state");
  ECLB_ASSERT(vms_.empty(), "begin_sleep: server still hosts VMs");
  ECLB_ASSERT(awake(now), "begin_sleep: server must be awake");
  update_energy(now);
  const common::Seconds done = cstates_.begin_transition(target, now);
  update_energy(now);  // re-sample power now that the transition started
  notify_changed();
  return done;
}

common::Seconds Server::deepen_sleep(energy::CState target, common::Seconds now) {
  cstates_.settle(now);
  ECLB_ASSERT(cstates_.state() != energy::CState::kC0,
              "deepen_sleep: server is awake; use begin_sleep");
  ECLB_ASSERT(!cstates_.transitioning(now), "deepen_sleep: transition in flight");
  ECLB_ASSERT(static_cast<int>(target) > static_cast<int>(cstates_.state()),
              "deepen_sleep: target must be deeper than the current state");
  ECLB_ASSERT(vms_.empty(), "deepen_sleep: server still hosts VMs");
  update_energy(now);
  const common::Seconds done = cstates_.begin_transition(target, now);
  update_energy(now);
  notify_changed();
  return done;
}

common::Seconds Server::begin_wake(common::Seconds now) {
  cstates_.settle(now);
  ECLB_ASSERT(cstates_.state() != energy::CState::kC0, "begin_wake: already awake");
  ECLB_ASSERT(!cstates_.transitioning(now), "begin_wake: transition in flight");
  update_energy(now);
  // The wake-up energy is accounted by integration: while the transition is
  // in flight, power() reports wake_power_fraction of peak, so the meter
  // charges it over the wake latency.  No lump sum here or it would double
  // count.
  const common::Seconds done = cstates_.begin_transition(energy::CState::kC0, now);
  update_energy(now);
  notify_changed();
  return done;
}

void Server::settle(common::Seconds now) {
  // settle() is called for every server every round; only an actually
  // completed transition is worth a notification.
  const bool was_transitioning = cstates_.transition_target().has_value();
  cstates_.settle(now);
  if (was_transitioning && !cstates_.transition_target().has_value()) {
    notify_changed();
  }
}

common::Watts Server::power(common::Seconds now) const {
  if (failed()) return common::Watts{0.0};
  const auto fraction = cstates_.power_fraction(now);
  if (fraction.has_value()) {
    return power_model_->peak_power() * *fraction;
  }
  return power_model_->power(served_load());
}

void Server::update_energy(common::Seconds now) {
  meter_.advance(now, power(now));
}

void Server::update_energy_static(common::Seconds now) {
  ECLB_ASSERT(!cstates_.transition_target().has_value(),
              "update_energy_static: transition pending; power is time-dependent");
  meter_.advance(now, common::Watts{table_->static_power(slot_)});
}

double Server::compute_static_power() const {
  if (failed()) return 0.0;
  if (cstates_.state() != energy::CState::kC0) {
    return (power_model_->peak_power() *
            energy::spec_for(cstates_.table(), cstates_.state()).hold_power_fraction)
        .value;
  }
  return power_model_->power(served_load()).value;
}

void Server::sync_derived() {
  ServerStateTable& t = *table_;
  const bool alive = t.alive(slot_);
  const bool pending = cstates_.transition_target().has_value();
  const energy::CState src = cstates_.state();
  const bool is_awake = alive && src == energy::CState::kC0 && !pending;
  t.set_vm_count(slot_, static_cast<std::uint32_t>(vms_.size()));
  t.set_transition_pending(slot_, pending);
  t.set_awake(slot_, is_awake);
  t.set_static_power(slot_, compute_static_power());

  const std::int8_t cls = energy::classify_regime_branchless(
      t.load(slot_), t.capacity(slot_), thresholds_);
  ServerStateTable::IndexRow row;
  row.load = t.load(slot_);
  row.center = thresholds_.optimal_center();
  row.vm_count = static_cast<std::uint32_t>(vms_.size());
  row.regime = is_awake ? cls : ServerStateTable::kNone;
  row.classified = cls;
  if (alive && !pending && src != energy::CState::kC0) {
    row.sleep_depth = static_cast<std::int8_t>(static_cast<int>(src) - 1);
  }
  row.cstate_src = static_cast<std::uint8_t>(src);
  row.effective = static_cast<std::uint8_t>(effective_cstate());
  row.awake = is_awake ? 1 : 0;
  row.alive = alive ? 1 : 0;
  t.set_index_row(slot_, row);
}

}  // namespace eclb::server
