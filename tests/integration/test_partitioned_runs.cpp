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

/// Per-interval report digests followed by the final state digest.  The
/// cluster template and the plan are seeded with `cluster_seed` and
/// `plan_seed`.
std::vector<std::uint64_t> partitioned_run(std::size_t shards,
                                           std::uint64_t cluster_seed,
                                           std::uint64_t plan_seed) {
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
  auto plan = fault::FaultPlan::parse(kPlan, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  if (!plan.has_value()) return {};
  plan->set_seed(plan_seed);
  const fault::FabricFaultSession faults(fabric, *plan);

  std::vector<std::uint64_t> digests;
  for (std::size_t i = 0; i < kIntervals; ++i) {
    digests.push_back(fabric_report_digest(fabric.step()));
    for (std::size_t s = 0; s < fabric.size(); ++s) {
      const auto audit = fabric.cluster(s).self_audit();
      EXPECT_FALSE(audit.has_value())
          << "interval " << i << " shard " << s << ": " << *audit;
    }
  }
  digests.push_back(fabric.state_digest());
  const auto stats = faults.combined_stats();
  EXPECT_EQ(stats.partitions, 2 * shards);
  EXPECT_EQ(stats.heals, 2 * shards);
  EXPECT_GT(stats.shadow_restarts, 0U);
  return digests;
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

}  // namespace
}  // namespace eclb::cluster
