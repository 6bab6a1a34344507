// The sharded fabric (cluster/fabric.h): mailbox merge ordering, the
// super-leader router's stable most-spare routing, seed derivation, the
// zero-capacity guards, unplaced-overflow accounting, and the tier's
// headline contract -- bit-identical replay at any worker thread count,
// faults included.
#include "cluster/fabric.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "experiment/request_driver.h"
#include "experiment/scenario.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"

namespace eclb::cluster {
namespace {

FabricConfig make_config(std::size_t shards, double lo, double hi,
                         std::size_t threads = 1) {
  FabricConfig cfg;
  cfg.shard_count = shards;
  cfg.threads = threads;
  cfg.cluster_template.server_count = 30;
  cfg.cluster_template.initial_load_min = lo;
  cfg.cluster_template.initial_load_max = hi;
  cfg.cluster_template.seed = 21;
  return cfg;
}

// --- mailbox merge ----------------------------------------------------------

TEST(MergeOutboxes, OrdersByShardThenSequence) {
  std::vector<std::vector<OverflowRequest>> outboxes(3);
  outboxes[2].push_back({2, 0, common::AppId{5}, 0.3});
  outboxes[0].push_back({0, 0, common::AppId{1}, 0.1});
  outboxes[0].push_back({0, 1, common::AppId{2}, 0.2});
  outboxes[1] = {};  // empty shard contributes nothing

  const auto merged = merge_outboxes(outboxes);
  ASSERT_EQ(merged.size(), 3U);
  EXPECT_EQ(merged[0].origin, 0U);
  EXPECT_EQ(merged[0].seq, 0U);
  EXPECT_EQ(merged[1].origin, 0U);
  EXPECT_EQ(merged[1].seq, 1U);
  EXPECT_EQ(merged[2].origin, 2U);
  EXPECT_EQ(merged[2].seq, 0U);
}

TEST(MergeOutboxes, EmptyOutboxesMergeEmpty) {
  EXPECT_TRUE(merge_outboxes({}).empty());
  EXPECT_TRUE(merge_outboxes({{}, {}, {}}).empty());
}

// --- the super-leader router ------------------------------------------------

TEST(OverflowRouter, PrefersMostSpareCapacity) {
  OverflowRouter router({{8.0, 10.0},    // spare 2
                         {1.0, 10.0},    // spare 9
                         {5.0, 10.0}});  // spare 5
  const auto order = router.candidate_order(0);
  ASSERT_EQ(order.size(), 2U);
  EXPECT_EQ(order[0], 1U);
  EXPECT_EQ(order[1], 2U);
}

TEST(OverflowRouter, ExcludesOriginAndFullShards) {
  OverflowRouter router({{1.0, 10.0},
                         {10.0, 10.0},    // no spare
                         {12.0, 10.0},    // oversubscribed
                         {2.0, 10.0}});
  const auto order = router.candidate_order(0);
  ASSERT_EQ(order.size(), 1U);
  EXPECT_EQ(order[0], 3U);
}

TEST(OverflowRouter, EqualSparesBreakTiesByAscendingShardId) {
  // The common case: an identical template gives every shard the same spare.
  // A non-stable sort over equal keys would leave the visit order
  // implementation-defined; the router must be stable.
  OverflowRouter router({{3.0, 10.0}, {3.0, 10.0}, {3.0, 10.0}, {3.0, 10.0}});
  EXPECT_EQ(router.candidate_order(0), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(router.candidate_order(2), (std::vector<std::size_t>{0, 1, 3}));
}

TEST(OverflowRouter, BookingUpdatesLaterOrdering) {
  OverflowRouter router({{0.0, 1.0}, {1.0, 10.0}, {5.0, 10.0}});
  EXPECT_EQ(router.candidate_order(0)[0], 1U);
  router.book(1, 8.5);  // shard 1's spare drops from 9 to 0.5
  EXPECT_DOUBLE_EQ(router.spare(1), 0.5);
  EXPECT_EQ(router.candidate_order(0)[0], 2U);
}

// --- seed derivation (the correlated-stream bugfix) -------------------------

TEST(Fabric, ShardSeedsUseSplitmixDerivation) {
  Fabric fabric(make_config(3, 0.2, 0.4));
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    EXPECT_EQ(fabric.cluster(i).config().seed, common::mix_seed(21, i));
    EXPECT_NE(fabric.cluster(i).config().seed, 21 + i);
  }
  // A lone shard is a plain cluster: it keeps the template seed unmixed.
  EXPECT_EQ(Fabric::shard_seed(21, 0, 1), 21U);
  EXPECT_EQ(Fabric(make_config(1, 0.2, 0.4)).cluster(0).config().seed, 21U);
}

TEST(Fabric, ShardSeedsDoNotOverlapAcrossBaseSeeds) {
  // Mirror of the runner's replication-seed test: the old base + i
  // derivation made (base, i+1) collide with (base + 1, i); the mixed
  // derivation keeps neighbouring fabrics' shard streams disjoint.
  constexpr std::size_t kShards = 9;
  for (std::uint64_t base = 1; base < 50; ++base) {
    for (std::size_t i = 0; i + 1 < kShards; ++i) {
      EXPECT_NE(Fabric::shard_seed(base, i + 1, kShards),
                Fabric::shard_seed(base + 1, i, kShards))
          << "base=" << base << " i=" << i;
      EXPECT_NE(Fabric::shard_seed(base, i, kShards),
                Fabric::shard_seed(base + 1, i, kShards));
    }
  }
}

TEST(Fabric, ShardSeedsAreDistinctWithinOneFabric) {
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 256; ++i) {
    seeds.insert(Fabric::shard_seed(7, i, 256));
  }
  EXPECT_EQ(seeds.size(), 256U);
}

TEST(Fabric, AdjacentShardStreamsAreDecorrelated) {
  // The statistical teeth behind the derivation change: with `seed + i` the
  // first draws of adjacent xoshiro streams were visibly correlated.  Any
  // pair of shard streams must now disagree on most of a short prefix.
  for (std::size_t shard = 0; shard + 1 < 8; ++shard) {
    common::Rng a(Fabric::shard_seed(9, shard, 8));
    common::Rng b(Fabric::shard_seed(9, shard + 1, 8));
    int distinct = 0;
    for (int i = 0; i < 64; ++i) {
      if (a.next_u64() != b.next_u64()) ++distinct;
    }
    EXPECT_GE(distinct, 60) << "shards " << shard << "," << shard + 1;
  }
}

// --- zero-capacity guards ---------------------------------------------------

TEST(Fabric, LoadFractionGuardsZeroCapacity) {
  Fabric fabric(make_config(2, 0.3, 0.5));
  EXPECT_GT(fabric.load_fraction(), 0.0);
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    auto& shard = fabric.mutable_cluster(i);
    for (const auto& s : shard.servers()) shard.crash_server(s.id());
  }
  // Every server failed: zero usable capacity must read as zero load, not
  // NaN.
  EXPECT_EQ(fabric.load_fraction(), 0.0);
  EXPECT_EQ(fabric.load_fraction(), fabric.load_fraction());  // not NaN
}

TEST(Cluster, LoadFractionZeroWhenAllServersFailed) {
  ClusterConfig cfg;
  cfg.server_count = 5;
  cfg.seed = 3;
  Cluster cluster(cfg);
  EXPECT_GT(cluster.usable_capacity(), 0.0);
  for (const auto& s : cluster.servers()) cluster.crash_server(s.id());
  EXPECT_EQ(cluster.usable_capacity(), 0.0);
  EXPECT_EQ(cluster.load_fraction(), 0.0);
}

// --- overflow accounting ----------------------------------------------------

TEST(Fabric, SaturatedFabricCountsUnplacedOverflows) {
  // Saturate every shard: overflow requests accepted into the mailboxes can
  // land nowhere, so the barrier books them as fabric-level unplaced
  // overflows and total_sla_violations() owns them.
  FabricConfig cfg = make_config(2, 0.0, 0.0);
  cfg.cluster_template.demand_change_probability = 0.5;
  Fabric fabric(cfg);
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    auto& shard = fabric.mutable_cluster(i);
    for (auto& s : shard.mutable_servers()) {
      (void)shard.inject_vm(s.id(), common::AppId{1}, 0.97);
    }
  }
  std::size_t offloaded = 0;
  std::size_t placed = 0;
  std::size_t unplaced = 0;
  std::size_t shard_violations = 0;
  std::size_t total_violations = 0;
  for (int i = 0; i < 10; ++i) {
    const auto report = fabric.step();
    placed += report.inter_cluster_placements;
    unplaced += report.unplaced_overflows;
    total_violations += report.total_sla_violations();
    for (const auto& c : report.clusters) {
      offloaded += c.offloaded_requests;
      shard_violations += c.sla_violations;
    }
  }
  EXPECT_GT(offloaded, 0U);
  EXPECT_EQ(offloaded, placed + unplaced);
  // Demand churn frees a sliver of room over ten steps, so a handful of
  // placements are legitimate; the saturated fabric must still fail to place
  // most of them, exercising the unplaced path.
  EXPECT_GT(unplaced, placed);
  EXPECT_EQ(total_violations, shard_violations + unplaced);
}

// --- determinism ------------------------------------------------------------

/// Per-interval digests plus the final state digest of one faulted run.
std::vector<std::uint64_t> digest_run(std::size_t threads) {
  FabricConfig cfg = make_config(4, 0.3, 0.6, threads);
  cfg.cluster_template.demand_change_probability = 0.3;
  Fabric fabric(cfg);
  fault::FaultPlan plan;
  plan.link_loss(common::Seconds{0.0}, 0.15)
      .crash(common::Seconds{120.0}, common::ServerId{2})
      .recover(common::Seconds{300.0}, common::ServerId{2});
  fault::FabricFaultSession faults(fabric, plan);
  std::vector<std::uint64_t> digests;
  for (int i = 0; i < 8; ++i) {
    digests.push_back(fabric_report_digest(fabric.step()));
  }
  digests.push_back(fabric.state_digest());
  return digests;
}

TEST(Fabric, BitIdenticalAcrossThreadCounts) {
  // The tier's acceptance criterion: the same (seed, fault plan) replayed
  // at worker thread counts 1, 2 and 8 produces bit-identical per-interval
  // reports and final state.
  const auto baseline = digest_run(1);
  EXPECT_EQ(digest_run(2), baseline);
  EXPECT_EQ(digest_run(8), baseline);
}

/// Per-interval digests, the final state digest and the completed-request
/// count of a faulted 4-shard request run.
std::vector<std::uint64_t> digest_request_run(std::size_t threads) {
  FabricConfig cfg = make_config(4, 0.3, 0.6, threads);
  cfg.cluster_template.demand_evolution_enabled = false;  // requests drive it
  Fabric fabric(cfg);
  std::string error;
  const auto plan = fault::FaultPlan::parse(
      "loss@0:p=0.1;crash@120:s=2;part@240:g=0-14|15-29,heal=480;seed=5",
      &error);
  EXPECT_TRUE(plan.has_value()) << error;
  const auto requests = workload::engine::RequestWorkloadConfig::parse(
      "poisson:rate=200;flash:rate=100,burst=8;seed=3", &error);
  EXPECT_TRUE(requests.has_value()) << error;
  const fault::FabricFaultSession faults(fabric, *plan);
  experiment::FabricRequestSession session(fabric, *requests);
  std::vector<std::uint64_t> digests;
  for (int i = 0; i < 12; ++i) {
    session.advance_interval();
    digests.push_back(fabric_report_digest(fabric.step()));
  }
  digests.push_back(fabric.state_digest());
  digests.push_back(session.summary().completed);
  return digests;
}

TEST(Fabric, OddLaneCountMatchesInline) {
  // Three lanes on four shards -- two workers plus the stepping thread --
  // leave one lane two shards a phase, in the request pass and the step
  // alike; the run must replay the inline one exactly.
  const auto inline_run = digest_request_run(1);
  EXPECT_GT(inline_run.back(), 0U);
  EXPECT_EQ(digest_request_run(3), inline_run);
}

TEST(Fabric, PoolNeverOutnumbersShards) {
  // A phase has one index per shard, so the pool runs min(resolved
  // threads, shards) lanes, the stepping thread included: extra lanes would
  // only sit idle.
  EXPECT_EQ(Fabric(make_config(4, 0.3, 0.6, 1)).resolved_threads(), 1U);
  EXPECT_EQ(Fabric(make_config(4, 0.3, 0.6, 3)).resolved_threads(), 3U);
  EXPECT_EQ(Fabric(make_config(4, 0.3, 0.6, 8)).resolved_threads(), 4U);
  EXPECT_EQ(Fabric(make_config(2, 0.3, 0.6, 8)).resolved_threads(), 2U);
  EXPECT_EQ(Fabric(make_config(3, 0.3, 0.6, 2)).resolved_threads(), 2U);
  EXPECT_EQ(Fabric(make_config(3, 0.3, 0.6, 1)).resolved_threads(), 1U);
  const std::size_t hardware =
      Fabric(make_config(2, 0.3, 0.6, 0)).resolved_threads();
  EXPECT_GE(hardware, 1U);
  EXPECT_LE(hardware, 2U);
}

TEST(Fabric, BitIdenticalAcrossRuns) {
  EXPECT_EQ(digest_run(2), digest_run(2));
}

TEST(Fabric, DigestDetectsDifferentSeeds) {
  // The digest must actually discriminate: two fabrics differing only in
  // seed may not collide on their first-interval digest.
  auto digest_of = [](std::uint64_t seed) {
    FabricConfig cfg = make_config(2, 0.3, 0.6);
    cfg.cluster_template.seed = seed;
    Fabric fabric(cfg);
    return fabric_report_digest(fabric.step());
  };
  EXPECT_NE(digest_of(1), digest_of(2));
}

/// Steps a 1-shard fabric and a plain Cluster built from the same config,
/// fault plan and (when `requests` is set) request workload, expecting the
/// same per-interval report digest.  Returns the plain run's SLA violations.
std::size_t expect_single_shard_is_plain_cluster(
    const ClusterConfig& cfg, const fault::FaultPlan& plan,
    const std::optional<workload::engine::RequestWorkloadConfig>& requests) {
  FabricConfig fcfg;
  fcfg.shard_count = 1;
  fcfg.threads = 4;  // ignored: a lone shard steps inline
  fcfg.cluster_template = cfg;
  Fabric fabric(fcfg);
  const fault::FabricFaultSession faults(fabric, plan);
  std::optional<experiment::FabricRequestSession> session;
  if (requests.has_value()) session.emplace(fabric, *requests);
  EXPECT_EQ(fabric.resolved_threads(), 1U);

  Cluster cluster(cfg);
  const fault::FaultInjector injector(cluster, plan);
  std::optional<experiment::RequestDriver> driver;
  if (requests.has_value()) driver.emplace(cluster, *requests);

  std::size_t violations = 0;
  for (int i = 0; i < 30; ++i) {
    if (requests.has_value()) {
      session->advance_interval();
      driver->advance_interval();
    }
    const FabricIntervalReport sharded = fabric.step();
    FabricIntervalReport plain;
    plain.clusters.push_back(cluster.step());
    violations += plain.clusters[0].sla_violations;
    EXPECT_EQ(fabric_report_digest(sharded), fabric_report_digest(plain))
        << "interval " << i;
  }
  EXPECT_GT(faults.combined_stats().partitions, 0U);
  if (requests.has_value()) {
    EXPECT_EQ(session->summary().completed, driver->summary().completed);
  }
  return violations;
}

TEST(Fabric, SingleShardMatchesPlainCluster) {
  // A lone shard is a plain cluster: the fabric, its fault session and its
  // request session keep the cluster, plan and workload seeds unmixed, and
  // install no overflow mailbox and no worker thread.  At load 70 under a
  // crash and a partition, stochastic demand growth overflows the cluster,
  // so a mailbox that swallowed the overflow changes the digests; the flash
  // crowd run covers the request workload's seed.
  ClusterConfig cfg = experiment::paper_cluster_config(
      60, experiment::AverageLoad::kHigh70, /*seed=*/31);
  std::string error;
  const auto plan = fault::FaultPlan::parse(
      "loss@0:p=0.05;crash@300:s=7;part@600:g=0-19|20-59,heal=1200;seed=9",
      &error);
  ASSERT_TRUE(plan.has_value()) << error;
  const auto requests = workload::engine::RequestWorkloadConfig::parse(
      "poisson:rate=300;flash:rate=150,burst=8;seed=7", &error);
  ASSERT_TRUE(requests.has_value()) << error;

  EXPECT_GT(expect_single_shard_is_plain_cluster(cfg, *plan, std::nullopt),
            0U);
  cfg.demand_evolution_enabled = false;
  EXPECT_GT(expect_single_shard_is_plain_cluster(cfg, *plan, requests), 0U);
}

TEST(Fabric, FaultSessionDerivesPerShardStreams) {
  Fabric fabric(make_config(3, 0.3, 0.5));
  fault::FaultPlan plan;
  plan.set_seed(77).link_loss(common::Seconds{0.0}, 0.1);
  const fault::FabricFaultSession faults(fabric, plan);
  ASSERT_EQ(faults.size(), 3U);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(faults.injector(i).plan().seed(), common::mix_seed(77, i));
  }
}

}  // namespace
}  // namespace eclb::cluster
