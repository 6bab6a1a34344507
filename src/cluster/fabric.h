// The sharded multi-cluster fabric of Section 4, grown to cloud scale.
//
// "Hierarchical organization has long been recognized as an effective way to
// cope with system complexity.  Clustering supports scalability, as the
// number of systems increase we add new clusters."  A Fabric is a set of
// independently led clusters -- *shards* -- each with its own leader, event
// queue and regime index, stepped concurrently on ThreadPool workers under
// conservative interval-barrier synchronization:
//
//   1. Parallel phase: every shard runs one reallocation round of interval T
//      on its own kernel.  Shards share no mutable state; demand a shard
//      cannot place locally is not dispatched into a sibling mid-interval
//      but appended to the shard's *outbox* mailbox as an OverflowRequest
//      stamped (shard id, sequence).
//   2. Barrier: the super-leader routing tier merges all outboxes in
//      deterministic (shard id, sequence) order and resolves each request
//      against a coarse per-shard capacity ledger -- most spare capacity
//      first with a stable lowest-shard-id tie-break, exactly what cluster
//      leaders would report upward -- applying accepted placements before
//      interval T+1 begins.
//
// Because the parallel phase touches only per-shard state and the barrier
// resolution is a pure function of the merged mailbox order, a fabric run is
// bit-identical for any worker thread count, including 1.  Per-shard seeds
// derive from the template seed via Fabric::shard_seed (the splitmix64
// common::mix_seed, never `seed + i`), so adjacent shards draw from
// decorrelated streams.
//
// A lone shard is a plain cluster: it keeps the template seed unmixed, gets
// no overflow mailbox (there is no sibling to route to) and no worker pool,
// so a 1-shard fabric replays exactly the run of one Cluster built from the
// template.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/thread_pool.h"

namespace eclb::cluster {

/// Fabric-level configuration.
struct FabricConfig {
  /// Number of member shards (clusters).
  std::size_t shard_count{4};
  /// Template for every member cluster; shard i's seed is
  /// Fabric::shard_seed(template.seed, i, shard_count).
  ClusterConfig cluster_template{};
  /// Route overflow demand to sibling shards (off = isolated clusters).
  /// Ignored with one shard, which has no sibling.
  bool inter_cluster_overflow{true};
  /// Worker threads stepping the shards; 1 = step inline on the calling
  /// thread, 0 = hardware concurrency.  Any value replays bit-identically.
  /// Ignored with one shard, which always steps inline.
  std::size_t threads{1};
};

/// One cross-shard demand transfer queued during the parallel phase and
/// resolved at the interval barrier.
struct OverflowRequest {
  std::uint32_t origin{0};  ///< Shard that could not place the demand.
  std::uint32_t seq{0};     ///< Emission order within the origin's outbox.
  common::AppId app{};      ///< Application the demand belongs to.
  double demand{0.0};       ///< CPU demand (fraction of one server).
};

/// Flattens per-shard outboxes into the super-leader's work list in
/// deterministic (shard id, sequence) order.  Outbox `i` must hold shard
/// i's requests in emission order (they are appended that way).
[[nodiscard]] std::vector<OverflowRequest> merge_outboxes(
    const std::vector<std::vector<OverflowRequest>>& outboxes);

/// The super-leader's coarse routing ledger: per-shard demand and usable
/// capacity, as shard leaders would report upward at the barrier.  Routing
/// never inspects member servers -- placement detail stays inside the shard
/// that accepts the request.
class OverflowRouter {
 public:
  struct ShardLoad {
    double demand{0.0};
    double capacity{0.0};
  };

  explicit OverflowRouter(std::vector<ShardLoad> loads);

  /// Candidate shards for a request from `origin`: every other shard with
  /// positive spare capacity, most spare first, equal spares broken by
  /// ascending shard id (a *stable* order -- the common identical-template
  /// case must not depend on the sort implementation).  Loads are read from
  /// the ledger, never re-evaluated mid-comparison.
  [[nodiscard]] std::vector<std::size_t> candidate_order(
      std::size_t origin) const;

  /// Books `demand` onto `shard` after a successful placement, so later
  /// requests in the same barrier see the updated ledger.
  void book(std::size_t shard, double demand);

  /// Spare capacity of `shard` under the current ledger.
  [[nodiscard]] double spare(std::size_t shard) const;

 private:
  std::vector<ShardLoad> loads_;
};

/// One fabric-wide reallocation round.
struct FabricIntervalReport {
  std::vector<IntervalReport> clusters;    ///< Per-shard detail.
  std::size_t inter_cluster_placements{0}; ///< Requests absorbed by siblings.
  /// Overflow requests no sibling could absorb at the barrier.  The origin
  /// shard already booked them as offloads (the mailbox accepted the
  /// demand), so the fabric owns their violation accounting.
  std::size_t unplaced_overflows{0};
  double unplaced_demand{0.0};             ///< Demand behind those requests.

  /// Sum of a per-shard field across the fabric.
  [[nodiscard]] std::size_t total_local() const;
  [[nodiscard]] std::size_t total_in_cluster() const;
  /// Shard-level violations plus the barrier's unplaced overflows.
  [[nodiscard]] std::size_t total_sla_violations() const;
  [[nodiscard]] std::size_t total_deep_sleeping() const;
  [[nodiscard]] common::Joules total_energy() const;
};

/// FNV-1a digest over every counter and bit pattern in `report` (including
/// per-shard energies and regime histograms).  Two fabric runs are
/// bit-identical iff their per-interval digest sequences match -- the
/// determinism contract the tests and x5 double-run checks verify.
[[nodiscard]] std::uint64_t fabric_report_digest(
    const FabricIntervalReport& report);

/// The sharded fabric itself.
class Fabric {
 public:
  explicit Fabric(FabricConfig config);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Number of member shards.
  [[nodiscard]] std::size_t size() const { return shards_.size(); }
  /// Member access (shard i's cluster).
  [[nodiscard]] const Cluster& cluster(std::size_t i) const {
    return *shards_.at(i);
  }
  [[nodiscard]] Cluster& mutable_cluster(std::size_t i) {
    return *shards_.at(i);
  }

  /// Total servers across the fabric.
  [[nodiscard]] std::size_t total_servers() const;
  /// Worker threads the parallel phase actually uses: config threads with 0
  /// resolved to hardware concurrency, 1 when stepping inline.  Benchmarks
  /// report this per row so cross-machine comparisons are honest.
  [[nodiscard]] std::size_t resolved_threads() const {
    return pool_ != nullptr ? pool_->size() : 1;
  }
  /// Sum of the per-shard coalesced-pipeline counters.  The flush kernels
  /// run inside the workers stepping each shard, so these also serve as the
  /// TSan probe that the phase-boundary path is exercised under threads.
  [[nodiscard]] index::PipelineStats pipeline_stats() const;
  /// Enables flush-phase wall timing on every shard's index.
  void set_pipeline_phase_timing(bool on);
  /// Demand over usable capacity across the fabric; 0 when no capacity is
  /// usable (an all-failed or degenerate fabric never yields NaN/inf).
  [[nodiscard]] double load_fraction() const;
  /// Energy across the fabric.
  [[nodiscard]] common::Joules total_energy() const;

  /// The seed shard `shard` of `shard_count` derives from `base`: `base`
  /// itself for a lone shard, common::mix_seed(base, shard) otherwise.  The
  /// one derivation for every per-shard stream -- cluster, fault plan and
  /// request workload.
  [[nodiscard]] static std::uint64_t shard_seed(std::uint64_t base,
                                                std::size_t shard,
                                                std::size_t shard_count);

  /// Runs one conservative-barrier round: every shard steps interval T in
  /// parallel, then the super-leader resolves the overflow mailboxes in
  /// (shard id, sequence) order before T+1.  Bit-identical for any thread
  /// count.
  FabricIntervalReport step();

  /// Runs fn(i) for every shard index i on the parallel phase's workers
  /// (inline, in shard order, when stepping inline) and returns once all
  /// have finished.  fn(i) must touch only shard i's state; callers use this
  /// to fan per-shard work that sits outside step() -- such as the request
  /// drivers -- out on the same pool.
  void for_each_shard(const std::function<void(std::size_t)>& fn);

  /// FNV-1a digest of the fabric's live state (per-shard demand, energy,
  /// VM and sleep counts) -- the end-of-run half of the determinism
  /// contract.
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  void route_and_apply(FabricIntervalReport& report);

  FabricConfig config_;
  std::vector<std::unique_ptr<Cluster>> shards_;
  /// Outbox mailboxes, one per shard (empty when no mailbox is installed).
  /// During the parallel phase shard i appends only to outboxes_[i] from its
  /// own worker, so the phase is race-free without locks; the barrier drains
  /// them all.
  std::vector<std::vector<OverflowRequest>> outboxes_;
  /// Workers for the parallel phase; null when config_.threads == 1 or the
  /// fabric has one shard (the shards then step inline, which must produce
  /// identical results -- the pool is an execution detail, never a semantic
  /// one).
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace eclb::cluster
