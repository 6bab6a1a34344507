#include "cluster/fabric.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "common/fnv.h"

namespace eclb::cluster {

using common::fnv_mix;
using common::kFnvOffset;

std::vector<OverflowRequest> merge_outboxes(
    const std::vector<std::vector<OverflowRequest>>& outboxes) {
  std::size_t total = 0;
  for (const auto& box : outboxes) total += box.size();
  std::vector<OverflowRequest> merged;
  merged.reserve(total);
  // Outbox i holds shard i's requests in emission (seq) order, so shard-major
  // concatenation IS the (shard id, sequence) order -- no sort needed, and
  // nothing about worker scheduling can perturb it.
  for (const auto& box : outboxes) {
    merged.insert(merged.end(), box.begin(), box.end());
  }
  return merged;
}

OverflowRouter::OverflowRouter(std::vector<ShardLoad> loads)
    : loads_(std::move(loads)) {}

std::vector<std::size_t> OverflowRouter::candidate_order(
    std::size_t origin) const {
  // Snapshot spares once: evaluating loads inside the comparator would both
  // waste work and -- if a load were ever re-derived from live state -- risk
  // an inconsistent strict weak ordering.
  std::vector<std::size_t> order;
  order.reserve(loads_.size());
  for (std::size_t i = 0; i < loads_.size(); ++i) {
    if (i == origin) continue;
    if (loads_[i].capacity - loads_[i].demand > 0.0) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return (loads_[a].capacity - loads_[a].demand) >
                            (loads_[b].capacity - loads_[b].demand);
                   });
  // stable_sort preserves the ascending-id insertion order among equal
  // spares, which is the tie-break the determinism argument relies on: with
  // an identical template every shard starts with the same spare.
  return order;
}

void OverflowRouter::book(std::size_t shard, double demand) {
  ECLB_ASSERT(shard < loads_.size(), "OverflowRouter::book: shard out of range");
  loads_[shard].demand += demand;
}

double OverflowRouter::spare(std::size_t shard) const {
  ECLB_ASSERT(shard < loads_.size(),
              "OverflowRouter::spare: shard out of range");
  return loads_[shard].capacity - loads_[shard].demand;
}

std::size_t FabricIntervalReport::total_local() const {
  std::size_t total = 0;
  for (const auto& c : clusters) total += c.local_decisions;
  return total;
}

std::size_t FabricIntervalReport::total_in_cluster() const {
  std::size_t total = 0;
  for (const auto& c : clusters) total += c.in_cluster_decisions;
  return total;
}

std::size_t FabricIntervalReport::total_sla_violations() const {
  // Unplaced overflows are violations the fabric owns: the origin shard's
  // mailbox accepted the demand (so it booked an offload, not a violation),
  // and no sibling could absorb it at the barrier.
  std::size_t total = unplaced_overflows;
  for (const auto& c : clusters) total += c.sla_violations;
  return total;
}

std::size_t FabricIntervalReport::total_deep_sleeping() const {
  std::size_t total = 0;
  for (const auto& c : clusters) total += c.deep_sleeping_servers;
  return total;
}

common::Joules FabricIntervalReport::total_energy() const {
  common::Joules total{};
  for (const auto& c : clusters) total += c.interval_energy;
  return total;
}

std::uint64_t fabric_report_digest(const FabricIntervalReport& report) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, report.clusters.size());
  for (const IntervalReport& c : report.clusters) {
    fnv_mix(h, c.interval_index);
    fnv_mix(h, c.local_decisions);
    fnv_mix(h, c.in_cluster_decisions);
    fnv_mix(h, c.migrations);
    fnv_mix(h, c.shed_migrations);
    fnv_mix(h, c.rebalance_migrations);
    fnv_mix(h, c.consolidation_migrations);
    fnv_mix(h, c.horizontal_starts);
    fnv_mix(h, c.offloaded_requests);
    fnv_mix(h, c.drains);
    fnv_mix(h, c.sleeps);
    fnv_mix(h, c.wakes);
    fnv_mix(h, c.sla_violations);
    fnv_mix(h, c.qos_violations);
    fnv_mix(h, c.unserved_demand);
    fnv_mix(h, c.crashes);
    fnv_mix(h, c.recoveries);
    fnv_mix(h, c.failovers);
    fnv_mix(h, c.dropped_messages);
    fnv_mix(h, c.retried_messages);
    fnv_mix(h, c.orphans_replaced);
    fnv_mix(h, c.failed_migrations);
    fnv_mix(h, c.partitions);
    fnv_mix(h, c.heals);
    fnv_mix(h, c.fenced_commands);
    fnv_mix(h, c.shadow_starts);
    fnv_mix(h, c.duplicates_resolved);
    fnv_mix(h, c.sleeping_servers);
    fnv_mix(h, c.parked_servers);
    fnv_mix(h, c.deep_sleeping_servers);
    fnv_mix(h, c.failed_servers);
    for (const std::size_t bucket : c.regimes) fnv_mix(h, bucket);
    fnv_mix(h, c.interval_energy.value);
  }
  fnv_mix(h, report.inter_cluster_placements);
  fnv_mix(h, report.unplaced_overflows);
  fnv_mix(h, report.unplaced_demand);
  return h;
}

Fabric::Fabric(FabricConfig config) : config_(std::move(config)) {
  ECLB_ASSERT(config_.shard_count > 0, "Fabric: need at least one shard");
  shards_.reserve(config_.shard_count);
  for (std::size_t i = 0; i < config_.shard_count; ++i) {
    ClusterConfig member = config_.cluster_template;
    member.seed =
        shard_seed(config_.cluster_template.seed, i, config_.shard_count);
    shards_.push_back(std::make_unique<Cluster>(std::move(member)));
  }
  // A phase never has more indices than shards, so more lanes would only
  // sit idle.
  pool_ = std::make_unique<common::ThreadPool>(
      std::min(common::ThreadPool::resolve(config_.threads), shards_.size()));
  // A lone shard is a plain cluster: no sibling to route overflow to.
  if (shards_.size() == 1) return;
  if (config_.inter_cluster_overflow) {
    outboxes_.resize(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      // Deferred accept: the handler only queues the request in shard i's
      // own outbox (touched by no other shard during the parallel phase)
      // and reports success -- the super-leader took ownership of routing
      // it.  If the barrier then finds no sibling with room, the request is
      // booked as a fabric-level unplaced overflow, not re-surfaced as an
      // origin-local violation.
      shards_[i]->set_overflow_handler(
          [this, i](common::AppId app, double demand) {
            if (demand <= 0.0) return false;
            auto& outbox = outboxes_[i];
            outbox.push_back(OverflowRequest{
                static_cast<std::uint32_t>(i),
                static_cast<std::uint32_t>(outbox.size()), app, demand});
            return true;
          });
    }
  }
}

Fabric::~Fabric() {
  // Handlers capture `this`; sever them before members are destroyed.
  for (auto& c : shards_) c->set_overflow_handler(nullptr);
}

std::size_t Fabric::total_servers() const {
  std::size_t total = 0;
  for (const auto& c : shards_) total += c->size();
  return total;
}

double Fabric::load_fraction() const {
  double demand = 0.0;
  double capacity = 0.0;
  for (const auto& c : shards_) {
    demand += c->total_demand();
    capacity += c->usable_capacity();
  }
  // An all-failed (or zero-capacity) fabric carries no servable load, so
  // never divide by a zero capacity.
  if (capacity <= 0.0) return 0.0;
  return demand / capacity;
}

common::Joules Fabric::total_energy() const {
  common::Joules total{};
  for (const auto& c : shards_) total += c->total_energy();
  return total;
}

index::PipelineStats Fabric::pipeline_stats() const {
  index::PipelineStats total;
  for (const auto& c : shards_) total += c->pipeline_stats();
  return total;
}

void Fabric::set_pipeline_phase_timing(bool on) {
  for (auto& c : shards_) c->set_pipeline_phase_timing(on);
}

std::uint64_t Fabric::shard_seed(std::uint64_t base, std::size_t shard,
                                 std::size_t shard_count) {
  ECLB_ASSERT(shard < shard_count, "Fabric::shard_seed: shard out of range");
  if (shard_count == 1) return base;
  return common::mix_seed(base, static_cast<std::uint64_t>(shard));
}

void Fabric::route_and_apply(FabricIntervalReport& report) {
  const std::vector<OverflowRequest> merged = merge_outboxes(outboxes_);
  for (auto& box : outboxes_) box.clear();
  if (merged.empty()) return;

  // The routing ledger: coarse per-shard (demand, capacity) as leaders
  // report them after the parallel phase.  Bookings keep it current across
  // the requests of one barrier, so a shard cannot be oversubscribed by
  // routing alone.
  std::vector<OverflowRouter::ShardLoad> loads;
  loads.reserve(shards_.size());
  for (const auto& c : shards_) {
    loads.push_back({c->total_demand(), c->usable_capacity()});
  }
  OverflowRouter router(std::move(loads));

  for (const OverflowRequest& req : merged) {
    bool placed = false;
    for (const std::size_t target : router.candidate_order(req.origin)) {
      if (shards_[target]->accept_external(req.app, req.demand)) {
        router.book(target, req.demand);
        ++report.inter_cluster_placements;
        placed = true;
        break;
      }
    }
    if (!placed) {
      ++report.unplaced_overflows;
      report.unplaced_demand += req.demand;
    }
  }
}

FabricIntervalReport Fabric::step() {
  FabricIntervalReport report;
  report.clusters.resize(shards_.size());
  for_each_shard([this, &report](std::size_t i) {
    // Each worker touches only shard i's kernel, outbox and report slot;
    // the phase shares nothing mutable across indices.
    report.clusters[i] = shards_[i]->step();
  });
  // The barrier: single-threaded, (shard id, sequence)-ordered resolution,
  // applied before the next interval begins.  Everything that feeds it is a
  // pure function of per-shard results, so thread count cannot leak in.
  route_and_apply(report);
  return report;
}

void Fabric::for_each_shard(const std::function<void(std::size_t)>& fn) {
  pool_->parallel_for(shards_.size(), fn);
}

std::uint64_t Fabric::state_digest() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, shards_.size());
  for (const auto& c : shards_) {
    fnv_mix(h, c->total_demand());
    fnv_mix(h, c->total_vms());
    fnv_mix(h, c->total_energy().value);
    fnv_mix(h, c->sleeping_count());
    fnv_mix(h, c->parked_count());
    fnv_mix(h, c->deep_sleeping_count());
    fnv_mix(h, c->failed_count());
    for (const std::size_t bucket : c->regime_histogram()) fnv_mix(h, bucket);
  }
  return h;
}

}  // namespace eclb::cluster
