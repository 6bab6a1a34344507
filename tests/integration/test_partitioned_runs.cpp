// Partitioned fabric runs pinned end to end.
//
// While a fabric is split, every energy-aware search, placement and wake
// pick is confined to one partition side.  These two runs -- a 1-shard and
// a 4-shard fabric, 60 servers per shard, each shard under the same plan of
// two partition/heal episodes plus crashes, a leader loss, link loss and
// migration failures -- pin the per-interval fabric report digests and the
// final state digest.  The scenario is tuned so that dropping the side
// filter from any search, the wake pick or the horizontal placement
// changes the digests.  The 4-shard constants were captured while
// partitioned searches still ran as side-filtered full scans, so they prove
// the side-filtered index searches that replaced them change nothing.
//
// CommandPathsPinned runs a harsher plan at 1 and 4 shards: delayed wake
// commands, heavy link loss with a long retry chain, two splits and a
// leader loss.  It pins the same digests plus every resilience figure the
// CLI trailer prints, so each leader command path -- first send, delayed
// wake, drop, retry, lost retry and fence -- is held to its pricing and
// bookkeeping.
//
// A 1-shard fabric is a plain cluster, so the 1-shard run is one Cluster
// under one FaultInjector.  It passes the derived seeds shard 0 of a larger
// fabric would get (mix_seed(2024, 0), mix_seed(5, 0)); its constants were
// captured from a plain Cluster + FaultInjector on those seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/fabric.h"
#include "common/rng.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"

namespace eclb::cluster {
namespace {

// The first split interleaves the sides, so drains often find their best
// uphill target across the cut; the second leaves the lowest ids -- the wake
// pick's first choice -- on the minority side while demand growth pushes
// the quorum into R5 and wake requests.
constexpr const char* kPlan =
    "loss@0:p=0.05;migfail@0:p=0.1;crash@300:s=13;"
    "part@120:g=0-9+30-39|10-29+40-59,heal=600;crash@900:s=50;leader@1000;"
    "recover@1500:s=13;part@840:g=0-9|10-59,heal=2160;seed=5";

constexpr std::size_t kIntervals = 40;

/// One pinned run: per-interval report digests followed by the final state
/// digest, and the fault session's combined resilience figures.
struct PinnedRun {
  std::vector<std::uint64_t> digests;
  fault::ResilienceStats stats;
};

/// Runs `spec` on a `shards`-shard fabric of 60 servers per shard.  The
/// cluster template and the plan are seeded with `cluster_seed` and
/// `plan_seed`.
PinnedRun run_plan(const char* spec, std::size_t shards,
                   std::uint64_t cluster_seed, std::uint64_t plan_seed) {
  FabricConfig fcfg;
  fcfg.shard_count = shards;
  // A low start with fast demand growth keeps every query busy while split:
  // R1 donors drain and park early, later the grown load raises R5 hosts
  // that request wakes, and the raised deep-sleep budget leaves C3/C6
  // sleepers to pick from.
  ClusterConfig& cfg = fcfg.cluster_template;
  cfg.server_count = 60;
  cfg.initial_load_min = 0.05;
  cfg.initial_load_max = 0.4;
  cfg.demand_change_probability = 0.5;
  cfg.lambda_max = 0.3;
  cfg.max_sleep_fraction_per_interval = 0.1;
  cfg.seed = cluster_seed;
  Fabric fabric(fcfg);
  std::string error;
  auto plan = fault::FaultPlan::parse(spec, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  if (!plan.has_value()) return {};
  plan->set_seed(plan_seed);
  const fault::FabricFaultSession faults(fabric, *plan);

  PinnedRun run;
  for (std::size_t i = 0; i < kIntervals; ++i) {
    run.digests.push_back(fabric_report_digest(fabric.step()));
    for (std::size_t s = 0; s < fabric.size(); ++s) {
      const auto audit = fabric.cluster(s).self_audit();
      EXPECT_FALSE(audit.has_value())
          << "interval " << i << " shard " << s << ": " << *audit;
    }
  }
  run.digests.push_back(fabric.state_digest());
  run.stats = faults.combined_stats();
  return run;
}

/// kPlan's digests; checks the plan's partition episodes all ran.
std::vector<std::uint64_t> partitioned_run(std::size_t shards,
                                           std::uint64_t cluster_seed,
                                           std::uint64_t plan_seed) {
  const PinnedRun run = run_plan(kPlan, shards, cluster_seed, plan_seed);
  EXPECT_EQ(run.stats.partitions, 2 * shards);
  EXPECT_EQ(run.stats.heals, 2 * shards);
  EXPECT_GT(run.stats.shadow_restarts, 0U);
  return run.digests;
}

// The leader's command paths under a hostile link: from the start every
// wake command is delayed, and the first split and its heal run under heavy
// loss with a long retry chain, so wake and transfer commands are dropped,
// retried (and lost again), and fenced when the post-heal reconciliation or
// an election moves their receiver's epoch on.  Both heals fall between
// rounds, so the heal convergence is not zero.  The leader loss lands inside
// the second split.  The second plan is the first without its delay@ item.
constexpr const char* kCommandPlan =
    "loss@0:p=0.05;migfail@0:p=0.1;delay@0:d=25;crash@300:s=13;"
    "part@120:g=0-9+30-39|10-29+40-59,heal=630;loss@150:p=0.6;"
    "loss@700:p=0.05;crash@900:s=50;leader@1000;recover@1500:s=13;"
    "part@840:g=0-9|10-59,heal=2170;retries=8;backoff=15;cap=120;seed=5";
constexpr const char* kCommandPlanNoDelay =
    "loss@0:p=0.05;migfail@0:p=0.1;crash@300:s=13;"
    "part@120:g=0-9+30-39|10-29+40-59,heal=630;loss@150:p=0.6;"
    "loss@700:p=0.05;crash@900:s=50;leader@1000;recover@1500:s=13;"
    "part@840:g=0-9|10-59,heal=2170;retries=8;backoff=15;cap=120;seed=5";

/// Every figure the CLI's resilience trailer prints, in trailer order.
std::vector<double> trailer_figures(const fault::ResilienceStats& st) {
  return {static_cast<double>(st.crashes),
          static_cast<double>(st.recoveries),
          static_cast<double>(st.failovers),
          static_cast<double>(st.dropped_messages),
          static_cast<double>(st.retried_messages),
          static_cast<double>(st.migration_failures),
          st.mttr(),
          static_cast<double>(st.partitions),
          static_cast<double>(st.heals),
          static_cast<double>(st.fenced_commands),
          static_cast<double>(st.shadow_restarts),
          static_cast<double>(st.duplicates_resolved),
          static_cast<double>(st.orphans_adopted),
          st.heal_convergence.count() > 0 ? st.heal_convergence.mean() : 0.0};
}

std::string as_doubles(const std::vector<double>& figures) {
  std::string out = "{";
  char buf[48];
  for (const double f : figures) {
    std::snprintf(buf, sizeof buf, "%.17g, ", f);
    out += buf;
  }
  out += "}";
  return out;
}

std::string as_initializer(const std::vector<std::uint64_t>& digests) {
  std::string out = "{";
  char buf[32];
  for (const std::uint64_t d : digests) {
    std::snprintf(buf, sizeof buf, "0x%016llxULL, ",
                  static_cast<unsigned long long>(d));
    out += buf;
  }
  out += "}";
  return out;
}

TEST(PartitionedRun, SingleShardDigestsPinned) {
  const std::vector<std::uint64_t> pinned = {
      0x8669fee4ad5c6adcULL, 0xdd37a4808dbe7895ULL, 0x669d958448104029ULL,
      0x2fd3344226221cacULL, 0x9f07909861256b6cULL, 0xb22beae48a59cbb5ULL,
      0x09b9d4efc6d52f1dULL, 0x38a60f59bdb3d8f6ULL, 0xb88a3281b6da3093ULL,
      0x85fabf7d2ca29543ULL, 0xb6f3f2b26d9d02f0ULL, 0x61ae2fd756fd99dcULL,
      0x096b5447be682ea7ULL, 0x1b08716953ab71aaULL, 0x1cf093d28b86ad72ULL,
      0xd247c75667fd64e4ULL, 0x5f8467a281256914ULL, 0x45e8f2e4ca260dfcULL,
      0x276262a2ee4a5ed1ULL, 0xc69dace137c50aa9ULL, 0xe09e7568cf9bbdf1ULL,
      0x017b6f72fed5e2c4ULL, 0xee9031c283626800ULL, 0x904989ee89b0f4eaULL,
      0x601d0c5ce8166862ULL, 0x6e2064ce60dbe62eULL, 0x76aabbb6f6174fd9ULL,
      0x3cdcab478a88afc1ULL, 0xf58e51d52068e4a7ULL, 0x5dbe27cbcb789dc8ULL,
      0x27830d2707c7e38bULL, 0x450a26baf0c0b42cULL, 0xfc639ab2caf0f38bULL,
      0xc7a2c253f469519aULL, 0x7ded2a85e3b0c7a5ULL, 0x43c892dd63e9a316ULL,
      0x7c47d75862ca27d0ULL, 0xfb9ac4d006662fc9ULL, 0xb40ef694d4702230ULL,
      0x3d76d37d1ea83271ULL, 0x611636ddd09b4aecULL,
  };
  const auto got =
      partitioned_run(1, common::mix_seed(2024, 0), common::mix_seed(5, 0));
  EXPECT_EQ(got, pinned) << "digests " << as_initializer(got);
}

TEST(PartitionedRun, FourShardDigestsPinned) {
  const std::vector<std::uint64_t> pinned = {
      0x10e36b037136bf33ULL, 0x225a2ecbca5ddc82ULL, 0xdd92637433c77b82ULL,
      0x6b99470b9732e5acULL, 0xbaada98c7b0e8e20ULL, 0x875e47e8a9415ee6ULL,
      0x6ecf1068618d655bULL, 0x821a1b90680e3ff0ULL, 0xc762e95c70c76cd8ULL,
      0x6347dd3c18e5b137ULL, 0x12b84b439477ddbaULL, 0x7b042ab663e5df52ULL,
      0xe5b994db11162f23ULL, 0xaca6ddf895eb63e4ULL, 0x8bf0cf9049eb1c4cULL,
      0xf3953c74a8d2673bULL, 0xa1b02c4df8324b64ULL, 0xd7eadda30fdae688ULL,
      0x8198770a87f10bafULL, 0x0ad70ecbab0835f6ULL, 0x7aedac20334c3d9fULL,
      0x7b1e10c5e9d35f8bULL, 0x4155254d6854cf15ULL, 0xfe073769570ef28bULL,
      0x074f4cd78a3f43fdULL, 0x6caba94f83d0993dULL, 0x4b1ead0d5584fbc0ULL,
      0xc3410e4421daab97ULL, 0xbe83a5bc8bbb9af0ULL, 0x0363427af945c3c0ULL,
      0xab1eb388aa5448c2ULL, 0x9ec489994e863420ULL, 0xdc1b85bfc8e910afULL,
      0x7a7b4df985462ceaULL, 0x4d45f2c62325099dULL, 0xead6c760d2b948f3ULL,
      0xfa27dd183f577403ULL, 0x2874ef62a50ae9e3ULL, 0xd06a7f67871abd57ULL,
      0x5b70e90df1b07909ULL, 0xedd383e9e36ca276ULL,
  };
  const auto got = partitioned_run(4, 2024, 5);
  EXPECT_EQ(got, pinned) << "digests " << as_initializer(got);
}

/// Runs the command plan at `shards` shards and checks it against the
/// pinned digests and trailer figures.
void expect_command_paths(std::size_t shards, std::uint64_t cluster_seed,
                          std::uint64_t plan_seed,
                          const std::vector<std::uint64_t>& pinned_digests,
                          const std::vector<double>& pinned_figures) {
  const PinnedRun run =
      run_plan(kCommandPlan, shards, cluster_seed, plan_seed);
  EXPECT_EQ(run.digests, pinned_digests)
      << "digests " << as_initializer(run.digests);
  const std::vector<double> figures = trailer_figures(run.stats);
  EXPECT_EQ(figures, pinned_figures) << "figures " << as_doubles(figures);
  EXPECT_GT(run.stats.dropped_messages, 0U);
  EXPECT_GT(run.stats.retried_messages, 0U);
  EXPECT_GT(run.stats.fenced_commands, 0U);
  // Without the link delay every wake starts at once: the delayed-wake
  // path must have changed the run.
  const PinnedRun undelayed =
      run_plan(kCommandPlanNoDelay, shards, cluster_seed, plan_seed);
  EXPECT_NE(undelayed.digests, run.digests);
}

TEST(PartitionedRun, CommandPathsPinned) {
  // Trailer figures: crashes, recoveries, failovers, dropped, retried,
  // failed migrations, MTTR, splits, heals, fenced commands, shadow
  // restarts, duplicates resolved, orphans adopted, heal convergence.
  expect_command_paths(
      1, common::mix_seed(2024, 0), common::mix_seed(5, 0),
      {
        0x8669fee4ad5c6adcULL, 0xdd37a4808dbe7895ULL, 0x40e2fec7ad86d728ULL,
        0x3f5f271c8a1a132fULL, 0xe6e9d4b8da9a9278ULL, 0x1dcaea81be2edc43ULL,
        0xc4c37a6cc74b38fcULL, 0x4153dc26f9110c85ULL, 0x28bda786a366b26dULL,
        0xdb60a9ad241a441eULL, 0xd0e485b1a6fc21f1ULL, 0xe0966b8ddbc72514ULL,
        0xd8be032a8bc45287ULL, 0xbb0971bbce5d70ddULL, 0x7bd7df908e3f1112ULL,
        0xfcbc721d8a58ef54ULL, 0x009f5260efbd1d98ULL, 0xb36c8384ad2cc82fULL,
        0x6b5412ac948f436cULL, 0xc68f077ef22620d7ULL, 0x363eae159dfb54e4ULL,
        0x225ea45aff5e2bedULL, 0x446f72180fa6ea4bULL, 0x000d1f5652879095ULL,
        0x4b6fbcc8c7df4dd6ULL, 0xfd545d52a427fcd4ULL, 0x3db06fbaa1837d68ULL,
        0xdcd51c59d9c2b90eULL, 0x0bac0e9e46632f0fULL, 0x4e653b594ba4676eULL,
        0xb7779d5cfe41a72cULL, 0x5bfbb9c23d797d4dULL, 0x3eb170327ca642ccULL,
        0x465d1ca4514f14bfULL, 0x0484347d1d080050ULL, 0x7ae0aa7e6101abadULL,
        0x89d9d0d151662b46ULL, 0x71e939ce9c378c8aULL, 0xeb3af141a8c8c791ULL,
        0x5b1fe1a56098efc7ULL, 0x3280601e678f5cc2ULL,
      },
      {3, 1, 1, 1015, 221, 27, 130, 2, 2, 11, 98, 97, 0, 40});
  expect_command_paths(
      4, 2024, 5,
      {
        0x10e36b037136bf33ULL, 0x225a2ecbca5ddc82ULL, 0x750544b502fd9052ULL,
        0x8885321f71c558c0ULL, 0xf4d714776e641cc1ULL, 0x14a572eace7f226eULL,
        0x1185db5e7de82667ULL, 0xebe8f536c35e9a2fULL, 0xbd22fbe718ce1a28ULL,
        0x09c5cc14881a0bd8ULL, 0x36840a77650e13e7ULL, 0x46de90dcaf0abe55ULL,
        0x71afb6228470aa0aULL, 0x52ebf837f234869cULL, 0xe0979dd4fd640ac8ULL,
        0xd07d64d177dc1987ULL, 0x8b742043b29e1950ULL, 0xdcd350db7462433aULL,
        0x9ee045debf8d2052ULL, 0x5bf5de7152a94bf9ULL, 0x3c06fb1331d5ba77ULL,
        0xf05aa2d7e1bedf18ULL, 0x67410671d7f7f0a1ULL, 0xcd07ac9f7f355cf9ULL,
        0xdd11e32f52c46118ULL, 0x7f1649404f21c3f9ULL, 0xe1311b9fc2f8db13ULL,
        0xe9816af5427c94f1ULL, 0x455194091b59852cULL, 0x110cea3a44b406cbULL,
        0x1ff10fb0d606e1e3ULL, 0x0a6ec6cbba0d7f1fULL, 0xb120ed67c2d39e6aULL,
        0xe323ef35f9c2ea9bULL, 0xfe633751ce80e25aULL, 0x9fe28698bf1dd5c6ULL,
        0x431c954f25c0d8aeULL, 0xc4a9d4c07015f28cULL, 0x9357818be640c883ULL,
        0x37f547693b01c57aULL, 0x7d5b702a9debe7d5ULL,
      },
      {12, 4, 4, 3126, 693, 91, 290, 8, 8, 18, 340, 336, 0, 40});
}

}  // namespace
}  // namespace eclb::cluster
