#include "cluster/protocol/view.h"

#include <chrono>
#include <utility>

#include "cluster/cluster.h"
#include "cluster/index/regime_index.h"
#include "cluster/protocol/action.h"
#include "common/assert.h"
#include "vm/scaling.h"

namespace eclb::cluster::protocol {

namespace {
constexpr double kEps = 1e-9;

/// RAII wall-clock timer for the "placement_search" phase; inert (no clock
/// read) when the cluster has no observers attached.
class PlacementPhase {
 public:
  explicit PlacementPhase(Cluster& cluster)
      : cluster_(cluster), active_(cluster.has_observers()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~PlacementPhase() {
    if (active_) {
      cluster_.notify_phase(
          "placement_search",
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
              .count());
    }
  }
  PlacementPhase(const PlacementPhase&) = delete;
  PlacementPhase& operator=(const PlacementPhase&) = delete;

 private:
  Cluster& cluster_;
  bool active_;
  std::chrono::steady_clock::time_point start_{};
};
}  // namespace

std::span<server::Server> ClusterView::servers() { return cluster_.servers_; }

const server::ServerStateTable& ClusterView::state() const {
  return cluster_.state_;
}

server::Server& ClusterView::server(common::ServerId id) {
  return cluster_.server_ref(id);
}

const ClusterConfig& ClusterView::config() const { return cluster_.config_; }

common::Seconds ClusterView::now() const { return cluster_.now(); }

common::Rng& ClusterView::rng() { return cluster_.rng_; }

IntervalRecorder& ClusterView::recorder() { return cluster_.recorder_; }

std::size_t ClusterView::interval_index() const {
  return cluster_.interval_index_;
}

double ClusterView::load_fraction() const { return cluster_.load_fraction(); }

const vm::DemandGrowthSpec* ClusterView::growth_of(common::VmId id) const {
  return cluster_.growth_of(id);
}

std::optional<common::ServerId> ClusterView::pick_horizontal_target(
    double demand, common::ServerId exclude) {
  if (!leader_available()) return std::nullopt;
  PlacementPhase phase(cluster_);
  return cluster_.pick_placement(demand, exclude);
}

std::optional<common::ServerId> ClusterView::find_target(
    double demand, common::ServerId exclude, policy::PlacementTier max_tier) const {
  if (!leader_available()) return std::nullopt;
  if (cluster_.degraded(exclude)) return std::nullopt;
  PlacementPhase phase(cluster_);
  // Degraded requesters were turned away above; a partitioned search stays
  // on the quorum side.
  const auto filter = cluster_.side_filter(cluster_.membership_.quorum());
  return cluster_.index_->find_tiered_target(demand, exclude, max_tier, &filter);
}

std::optional<common::ServerId> ClusterView::find_below_center_target(
    double demand, common::ServerId exclude) const {
  if (!leader_available()) return std::nullopt;
  if (cluster_.degraded(exclude)) return std::nullopt;
  PlacementPhase phase(cluster_);
  const auto filter = cluster_.side_filter(cluster_.membership_.quorum());
  return cluster_.index_->find_below_center_target(demand, exclude, &filter);
}

std::optional<common::ServerId> ClusterView::pick_wake_candidate() const {
  if (!leader_available()) return std::nullopt;
  PlacementPhase phase(cluster_);
  // Only quorum-side sleepers are wakeable: a wake command cannot cross the
  // split fabric.
  const auto filter = cluster_.side_filter(cluster_.membership_.quorum());
  return cluster_.index_->pick_wake_candidate(&filter);
}

std::optional<common::ServerId> ClusterView::find_drain_target(
    const server::Server& donor, double demand) const {
  // A VM only drains to a peer on the donor's own side.
  const auto filter = cluster_.side_filter(cluster_.membership_.group_of(donor.id()));
  return cluster_.index_->find_drain_target(donor, demand, &filter);
}

std::optional<common::ServerId> ClusterView::next_in_regime(
    energy::Regime r, std::optional<common::ServerId> after) const {
  return cluster_.index_->next_in_regime(r, after);
}

std::optional<common::ServerId> ClusterView::next_above_center(
    std::optional<common::ServerId> after) const {
  return cluster_.index_->next_above_center(after);
}

std::optional<common::ServerId> ClusterView::next_parked(
    std::optional<common::ServerId> after) const {
  return cluster_.index_->next_parked(after);
}

std::optional<common::ServerId> ClusterView::next_awake_empty(
    std::optional<common::ServerId> after) const {
  return cluster_.index_->next_awake_empty(after);
}

std::size_t ClusterView::count_regime_reporters() const {
  return cluster_.index_->regime_reporter_count();
}

void ClusterView::grant_vertical(common::ServerId server) {
  cluster_.local_cost_ += vm::vertical_cost(cluster_.config_.costs);
  cluster_.recorder_.local_decision(server);
}

void ClusterView::spawn_remote(common::ServerId target_id, common::AppId app,
                               double demand) {
  (void)cluster_.start_vm(target_id, app, demand);
  cluster_.recorder_.horizontal_start(target_id);
}

bool ClusterView::migrate(server::Server& source, common::VmId vm_id,
                          common::ServerId target_id, MigrationCause cause) {
  // A VM image cannot cross an active partition (belt-and-braces: the
  // side-filtered searches should never propose such a pair).
  if (cluster_.membership_.partitioned() &&
      cluster_.membership_.group_of(source.id()) !=
          cluster_.membership_.group_of(target_id)) {
    return false;
  }
  auto& target = cluster_.server_ref(target_id);
  const vm::Vm* v = source.find(vm_id);
  if (v == nullptr || !target.awake(now())) return false;
  if (target.load() + v->demand() > target.capacity() + kEps) return false;
  return cluster_.send_transfer(source.id(), vm_id, target_id, cause,
                                /*attempt=*/0,
                                cluster_.membership_.epoch_of(source.id()));
}

bool ClusterView::try_offload(common::AppId app, double demand,
                              common::ServerId requester) {
  if (cluster_.degraded(requester)) return false;
  if (cluster_.overflow_handler_ == nullptr ||
      !cluster_.overflow_handler_(app, demand)) {
    return false;
  }
  cluster_.recorder_.offloaded();
  return true;
}

void ClusterView::request_wake(common::ServerId requester) {
  if (cluster_.degraded(requester)) return;
  wake_action_.run(*this);
}

void ClusterView::send_wake(common::ServerId id) {
  cluster_.send_wake(id, /*attempt=*/0, cluster_.membership_.epoch_of(id));
}

void ClusterView::charge_message(MessageKind kind, std::size_t n,
                                 bool network_energy) {
  cluster_.charge_message(kind, n, network_energy);
}

void ClusterView::begin_transition(server::Server& s, common::Seconds done) {
  cluster_.schedule_transition(s.id(), done);
}

std::optional<std::size_t> ClusterView::last_wake_interval(
    common::ServerId id) const {
  const auto it = cluster_.last_wake_interval_.find(id);
  if (it == cluster_.last_wake_interval_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::size_t> ClusterView::last_sleep_interval(
    common::ServerId id) const {
  const auto it = cluster_.last_sleep_interval_.find(id);
  if (it == cluster_.last_sleep_interval_.end()) return std::nullopt;
  return it->second;
}

void ClusterView::note_sleep(common::ServerId id) {
  cluster_.last_sleep_interval_[id] = cluster_.interval_index_;
}

bool ClusterView::leader_available() const {
  return cluster_.leader_available();
}

bool ClusterView::has_orphans() const { return !cluster_.orphans_.empty(); }

std::vector<OrphanVm> ClusterView::take_orphans() {
  return std::exchange(cluster_.orphans_, {});
}

void ClusterView::requeue_orphan(const OrphanVm& orphan) {
  cluster_.orphans_.push_back(orphan);
}

void ClusterView::replace_orphan(common::ServerId target, const OrphanVm& orphan) {
  cluster_.replace_orphan(target, orphan);
}

bool ClusterView::degraded(common::ServerId id) const {
  return cluster_.degraded(id);
}

bool ClusterView::reconcile_pending() const {
  return cluster_.reconcile_pending();
}

void ClusterView::reconcile_partitions() { cluster_.reconcile_partitions(); }

}  // namespace eclb::cluster::protocol
