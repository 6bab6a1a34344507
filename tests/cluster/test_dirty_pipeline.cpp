// Equivalence suite for the phase-coalesced notification pipeline.
//
// The pipeline's contract mirrors the index's own: coalescing notifications
// into per-phase flushes must be invisible -- every query answer, interval
// report and digest identical to applying each notification at its instant,
// under arbitrary interleavings of protocol rounds, faults and request
// workloads.  Three layers:
//   1. Unit tests for the pipeline's building blocks: DirtySet (dedup,
//      epoch-bump clear, uint32 epoch wraparound) and KeyBucketSet's
//      grouped-run batch apply + same-bucket refile against one-at-a-time
//      oracles, including the degenerate runs (empty batch, whole-bucket
//      turnover, refill of a just-emptied bucket).
//   2. Oracle-checked full runs under churn, a FaultPlan and a request-level
//      workload: after every mutation the index must equal a fresh rebuild
//      (self_check, the eager oracle) and the scan oracle, and each run's
//      folded report digest must match its pinned value.
//   3. Fabric digests: the same fabric seed must replay bit-identically at
//      1 and 2 worker threads, onto the pinned digest.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <memory_resource>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fabric.h"
#include "cluster/index/dirty_set.h"
#include "cluster/index/key_bucket_set.h"
#include "cluster/index/regime_index.h"
#include "experiment/request_driver.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "support/scan_oracle.h"

namespace eclb::cluster {
namespace {

using common::Seconds;
using common::ServerId;

// --- DirtySet ---------------------------------------------------------------

TEST(DirtySet, MarksAreDuplicateFreeInFirstTouchOrder) {
  index::DirtySet d;
  d.resize(8);
  EXPECT_TRUE(d.empty());
  d.mark(5);
  d.mark(2);
  d.mark(5);
  d.mark(2);
  d.mark(7);
  ASSERT_EQ(d.size(), 3u);
  const auto s = d.slots();
  EXPECT_EQ(s[0], 5u);
  EXPECT_EQ(s[1], 2u);
  EXPECT_EQ(s[2], 7u);
}

TEST(DirtySet, ClearForgetsMarksAndAllowsRemarking) {
  index::DirtySet d;
  d.resize(4);
  d.mark(1);
  d.mark(3);
  d.clear();
  EXPECT_TRUE(d.empty());
  d.mark(1);  // same slot again, new epoch: must register
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.slots()[0], 1u);
}

TEST(DirtySet, EpochWraparoundCannotAliasStaleStamps) {
  index::DirtySet d;
  d.resize(4);
  // Stamp slot 0 at the maximum epoch, then wrap: the stale stamp must not
  // make the post-wrap epoch (1) think slot 0 is already marked.
  d.set_epoch_for_test(0xFFFFFFFFu);
  d.mark(0);
  d.clear();  // epoch increments to 0 -> wraps: stamps reset, epoch = 1
  EXPECT_TRUE(d.empty());
  d.mark(0);
  ASSERT_EQ(d.size(), 1u);
  d.mark(0);  // dedup still works post-wrap
  EXPECT_EQ(d.size(), 1u);
}

// --- KeyBucketSet batch apply ----------------------------------------------

using Kv = index::KeyBucketSet::value_type;

std::vector<Kv> elements_of(const index::KeyBucketSet& s) {
  std::vector<Kv> out;
  for (auto it = s.begin(); it != s.end(); ++it) out.push_back(*it);
  return out;
}

TEST(KeyBucketSet, EmptyBatchTouchesNothing) {
  index::KeyBucketSet s(std::pmr::new_delete_resource());
  s.configure(16);
  s.insert({0.25, 1});
  s.insert({-0.125, 2});
  EXPECT_EQ(s.apply_batch({}, {}), 0u);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(elements_of(s), (std::vector<Kv>{{-0.125, 2}, {0.25, 1}}));
}

TEST(KeyBucketSet, WholeBucketTurnoverMatchesOneAtATimeOracle) {
  // With configure(16) the bucket geometry is 16 buckets over [-1, 1); keys
  // in [0, 0.125) all land in one bucket.  Erase the whole bucket and refill
  // it with a disjoint element set in a single batch.
  index::KeyBucketSet batched(std::pmr::new_delete_resource());
  index::KeyBucketSet oracle(std::pmr::new_delete_resource());
  batched.configure(16);
  oracle.configure(16);
  const std::vector<Kv> old_gen{{0.01, 1}, {0.05, 2}, {0.10, 3}};
  const std::vector<Kv> new_gen{{0.02, 4}, {0.06, 5}, {0.11, 6}};
  for (const auto& v : old_gen) {
    batched.insert(v);
    oracle.insert(v);
  }
  EXPECT_EQ(batched.apply_batch(old_gen, new_gen), 1u);  // one bucket run
  for (const auto& v : old_gen) oracle.erase(v);
  for (const auto& v : new_gen) oracle.insert(v);
  EXPECT_TRUE(batched == oracle);
  EXPECT_EQ(elements_of(batched), elements_of(oracle));
}

TEST(KeyBucketSet, RefileIntoJustEmptiedBucketWithinOneBatch) {
  // The batch drains one bucket to empty and simultaneously moves elements
  // from a neighbouring bucket into it: the run for the emptied bucket must
  // not leave a stale occupancy bit, and the incoming run must re-set it.
  index::KeyBucketSet batched(std::pmr::new_delete_resource());
  index::KeyBucketSet oracle(std::pmr::new_delete_resource());
  batched.configure(16);
  oracle.configure(16);
  // Bucket A: keys in [0, 0.125); bucket B: keys in [0.125, 0.25).
  const std::vector<Kv> in_a{{0.01, 1}, {0.07, 2}};
  const std::vector<Kv> in_b{{0.13, 3}, {0.20, 4}};
  for (const auto& v : in_a) {
    batched.insert(v);
    oracle.insert(v);
  }
  for (const auto& v : in_b) {
    batched.insert(v);
    oracle.insert(v);
  }
  // Erase all of A and all of B; insert B's ids back with keys in A's range.
  const std::vector<Kv> erases{{0.01, 1}, {0.07, 2}, {0.13, 3}, {0.20, 4}};
  const std::vector<Kv> inserts{{0.03, 3}, {0.09, 4}};
  EXPECT_EQ(batched.apply_batch(erases, inserts), 2u);
  for (const auto& v : erases) oracle.erase(v);
  for (const auto& v : inserts) oracle.insert(v);
  EXPECT_TRUE(batched == oracle);
  EXPECT_EQ(batched.size(), 2u);
  // Iteration crosses the emptied bucket B without visiting anything there.
  EXPECT_EQ(elements_of(batched), (std::vector<Kv>{{0.03, 3}, {0.09, 4}}));
}

TEST(KeyBucketSet, RefileMatchesEraseInsertInAndAcrossBuckets) {
  index::KeyBucketSet fused(std::pmr::new_delete_resource());
  index::KeyBucketSet oracle(std::pmr::new_delete_resource());
  fused.configure(16);
  oracle.configure(16);
  for (const Kv v : {Kv{0.01, 1}, Kv{0.05, 2}, Kv{0.10, 3}, Kv{0.30, 4}}) {
    fused.insert(v);
    oracle.insert(v);
  }
  // Same-bucket move up, same-bucket move down, cross-bucket move.
  const std::vector<std::pair<Kv, Kv>> moves{
      {{0.01, 1}, {0.12, 1}},   // up within the [0, 0.125) bucket
      {{0.10, 3}, {0.02, 3}},   // down within the same bucket
      {{0.30, 4}, {-0.40, 4}},  // across buckets
      {{0.05, 2}, {0.05, 2}},   // degenerate: key unchanged
  };
  for (const auto& [old_v, new_v] : moves) {
    fused.refile(old_v, new_v);
    oracle.erase(old_v);
    oracle.insert(new_v);
    EXPECT_TRUE(fused == oracle);
  }
  EXPECT_EQ(elements_of(fused), elements_of(oracle));
}

// --- coalesced pipeline vs the eager oracle ---------------------------------
//
// The eager oracle is RegimeIndex::self_check: it builds a fresh index over
// the same servers, which is exactly what applying every notification at
// its instant would have produced.  Each run asserts it after every
// mutation, checks every search and cursor against the scan oracle, and
// pins its folded report digests, captured while the eager mode still ran
// in production and both modes were proven to emit identical reports.

ClusterConfig pipeline_config(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.server_count = 60;
  cfg.initial_load_min = 0.2;
  cfg.initial_load_max = 0.4;
  cfg.seed = seed;
  return cfg;
}

/// Deterministic churn: crash, recover, derate or inject, cycling the fleet
/// (same shape as the regime-index suite, so the mutations hit mid-phase).
void churn(Cluster& c, int round) {
  const auto n = static_cast<std::uint32_t>(c.size());
  const ServerId victim{static_cast<std::uint32_t>((round * 7 + 3) % n)};
  switch (round % 4) {
    case 0: c.crash_server(victim); break;
    case 1: c.recover_server(victim); break;
    case 2: c.derate_server(victim, 0.5 + 0.1 * (round % 5)); break;
    default:
      if (!c.servers()[victim.value].failed()) {
        c.inject_vm(victim,
                    common::AppId{static_cast<std::uint32_t>(9000 + round)},
                    0.05);
      }
      break;
  }
}

/// Asserts the index is coherent with a fresh rebuild and with the scans.
void expect_coherent(const Cluster& c, const std::string& where) {
  const auto stale = c.regime_index()->self_check();
  EXPECT_FALSE(stale.has_value()) << where << ": " << *stale;
  const auto diverged = test_support::query_mismatch(c);
  EXPECT_FALSE(diverged.has_value()) << where << ": " << *diverged;
}

/// Folds the end-of-run totals into a run digest.
void fold_totals(std::uint64_t& h, const Cluster& c) {
  test_support::fold_digest(h, std::bit_cast<std::uint64_t>(c.total_energy().value));
  test_support::fold_digest(h, c.total_vms());
  test_support::fold_digest(h, c.message_stats().total());
}

TEST(DirtyPipeline, CoalescedMatchesEagerUnderChurn) {
  constexpr std::uint64_t kPinned[][2] = {
      {4, 0x069378497c96205eULL},
      {27, 0x4cb8499b24eb5cabULL},
      {101, 0xf2631a92dba0bdb9ULL}};
  for (const auto& [seed, pinned] : kPinned) {
    Cluster c(pipeline_config(seed));
    std::uint64_t h = test_support::kDigestSeed;
    for (int round = 0; round < 30; ++round) {
      test_support::fold_digest(h, test_support::report_digest(c.step()));
      churn(c, round);
      // Mid-phase view: the queries right after the mutation exercise the
      // flush-on-query barrier.
      expect_coherent(c, "seed " + std::to_string(seed) + " round " +
                             std::to_string(round));
    }
    fold_totals(h, c);
    EXPECT_EQ(h, pinned) << "seed " << seed << " digest 0x" << std::hex << h;
  }
}

fault::FaultPlan pipeline_stress_plan() {
  fault::FaultPlan plan;
  plan.crash(Seconds{90.0}, ServerId{4});
  plan.crash(Seconds{150.0}, ServerId{17});
  plan.crash_leader(Seconds{210.0});
  plan.recover(Seconds{400.0}, ServerId{4});
  plan.derate(Seconds{450.0}, ServerId{23}, 0.6);
  plan.link_loss(Seconds{500.0}, 0.2);
  plan.migration_failure_rate(Seconds{560.0}, 0.3);
  return plan;
}

TEST(DirtyPipeline, CoalescedMatchesEagerUnderFaultPlan) {
  constexpr std::uint64_t kPinned = 0x8f5b1769af4a1b68ULL;
  Cluster c(pipeline_config(33));
  fault::FaultInjector injector(c, pipeline_stress_plan());
  std::uint64_t h = test_support::kDigestSeed;
  for (std::size_t i = 0; i < 40; ++i) {
    test_support::fold_digest(h, test_support::report_digest(c.step()));
    expect_coherent(c, "interval " + std::to_string(i));
  }
  fold_totals(h, c);
  EXPECT_EQ(h, kPinned) << "digest 0x" << std::hex << h;
}

TEST(DirtyPipeline, CoalescedMatchesEagerUnderRequestWorkload) {
  constexpr std::uint64_t kPinned = 0xedd7ebc6c41e37ecULL;
  auto cfg = pipeline_config(55);
  cfg.demand_evolution_enabled = false;
  const char* spec = "poisson:rate=120,mean=0.3;flash:rate=40,burst=6;seed=9";
  std::string err;
  const auto wcfg = workload::engine::RequestWorkloadConfig::parse(spec, &err);
  ASSERT_TRUE(wcfg.has_value()) << err;
  Cluster c(cfg);
  experiment::RequestDriver driver(c, *wcfg);
  ASSERT_TRUE(driver.ok());
  std::uint64_t h = test_support::kDigestSeed;
  for (std::size_t i = 0; i < 30; ++i) {
    driver.advance_interval();
    expect_coherent(c, "interval " + std::to_string(i) + " (demand written)");
    test_support::fold_digest(h, test_support::report_digest(c.step()));
  }
  const auto summary = driver.summary();
  test_support::fold_digest(h, summary.completed);
  test_support::fold_digest(h, summary.sla_violations);
  fold_totals(h, c);
  EXPECT_EQ(h, kPinned) << "digest 0x" << std::hex << h;
}

/// The dirty count selects where a flush's key-axis edits go: in place up
/// to 32 dirty slots, into sorted batched runs from 33 on.  A flush of
/// exactly 32 and of exactly 33 must each equal a fresh rebuild and the
/// scans, with demand nudges that keep a server's regime (a key refile)
/// and jumps that move it (unfile + file) in both.
TEST(DirtyPipeline, FlushSizeBoundaryMatchesRebuild) {
  for (const std::size_t n : {std::size_t{32}, std::size_t{33}}) {
    const std::string where = std::to_string(n) + " dirty slots";
    Cluster c(pipeline_config(19));
    for (int i = 0; i < 5; ++i) c.step();
    expect_coherent(c, where + ", before");
    const index::PipelineStats before = c.pipeline_stats();

    std::size_t touched = 0;
    std::size_t regime_moves = 0;
    for (server::Server& s : c.mutable_servers()) {
      if (touched == n) break;
      if (!s.awake(c.now()) || s.vm_count() == 0) continue;
      const vm::Vm& v = s.vms().front();
      const auto regime = s.regime();
      const double demand = touched % 2 == 0 ? v.demand() * 0.999
                                             : v.demand() + 0.45;
      ASSERT_TRUE(s.force_demand(v.id(), demand));
      if (s.regime() != regime) ++regime_moves;
      ++touched;
    }
    ASSERT_EQ(touched, n);
    EXPECT_GT(regime_moves, 0u) << where;
    EXPECT_LT(regime_moves, n) << where;

    c.regime_index()->flush();
    const index::PipelineStats after = c.pipeline_stats();
    EXPECT_EQ(after.flushes, before.flushes + 1) << where;
    EXPECT_EQ(after.dirty_slots, before.dirty_slots + n) << where;
    if (n <= 32) {
      EXPECT_EQ(after.batch_refiles, before.batch_refiles) << where;
    } else {
      EXPECT_GT(after.batch_refiles, before.batch_refiles) << where;
    }
    expect_coherent(c, where + ", after");
  }
}

// --- fabric digests ---------------------------------------------------------

TEST(DirtyPipeline, FabricDigestsIdenticalAcrossModesAndThreadCounts) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kSteps = 8;
  // Folded per-interval + final state digests, pinned when the coalesced
  // and eager modes were proven to replay identically.
  constexpr std::uint64_t kPinned = 0x77c033ce7965c241ULL;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    FabricConfig fcfg;
    fcfg.shard_count = kShards;
    fcfg.threads = threads;
    fcfg.cluster_template = pipeline_config(77);
    Fabric fabric(fcfg);
    std::uint64_t h = test_support::kDigestSeed;
    for (std::size_t i = 0; i < kSteps; ++i) {
      test_support::fold_digest(h, fabric_report_digest(fabric.step()));
    }
    test_support::fold_digest(h, fabric.state_digest());
    EXPECT_EQ(h, kPinned) << threads << " threads: digest 0x" << std::hex << h;
  }
}

/// The coalesced pipeline actually coalesces: a steady-state interval at
/// this size must mark slots and apply batched refiles.  (Counter plumbing
/// guard -- the figures feed the CLI's --mem-stats/--profile trailers and
/// the perf kernel's phase rows.)
TEST(DirtyPipeline, PipelineCountersFlow) {
  Cluster c(pipeline_config(6));
  for (int i = 0; i < 10; ++i) c.step();
  const auto stats = c.pipeline_stats();
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.dirty_slots, 0u);
  // Phase timers only tick when explicitly enabled.
  EXPECT_EQ(stats.diff_seconds, 0.0);
  Cluster timed(pipeline_config(6));
  timed.set_pipeline_phase_timing(true);
  for (int i = 0; i < 10; ++i) timed.step();
  EXPECT_GT(timed.pipeline_stats().diff_seconds, 0.0);
}

}  // namespace
}  // namespace eclb::cluster
