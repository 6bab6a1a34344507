// Partitioned fabric runs pinned end to end.
//
// While a fabric is split, every energy-aware search, placement and wake
// pick is confined to one partition side.  These two runs -- a 1-shard and
// a 4-shard fabric, 60 servers per shard, each shard under the same plan of
// two partition/heal episodes plus crashes, a leader loss, link loss and
// migration failures -- pin the per-interval fabric report digests and the
// final state digest.  The scenario is tuned so that dropping the side
// filter from any search, the wake pick or the horizontal placement
// changes the digests.  The constants were captured while partitioned
// searches still ran as side-filtered full scans, so they prove the
// side-filtered index searches that replaced them change nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/fabric.h"
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

/// Per-interval report digests followed by the final state digest.
std::vector<std::uint64_t> partitioned_run(std::size_t shards) {
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
  cfg.seed = 2024;
  Fabric fabric(fcfg);
  std::string error;
  const auto plan = fault::FaultPlan::parse(kPlan, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  if (!plan.has_value()) return {};
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
      0x9f267285c85ae150ULL, 0xd295f5f7fa67ed13ULL, 0x08fae92beb63e6cfULL,
      0x41a196a809f29d03ULL, 0xf547f9b97e67b9eeULL, 0x55a34cac1561364bULL,
      0xbad6bd4987a76962ULL, 0xac607e711a395864ULL, 0xc1e1c601d83361ddULL,
      0x8baf6ad50c09963cULL, 0x81c7ec2de1790c50ULL, 0x7d9020434fa5583eULL,
      0x0d9b5f325790da0bULL, 0x3ab6dfd01250756cULL, 0xceed3d1950778d21ULL,
      0x0f79ea279e392973ULL, 0x96255f865db8f50bULL, 0xf64b695321aed562ULL,
      0x1956f3511a3628c2ULL, 0x2c460014d5198756ULL, 0x2f1b646c968389e4ULL,
      0x40b7e2b0392e7729ULL, 0x3effb9ccd2de2552ULL, 0x0da449f2ef32105eULL,
      0xa39f94552dc76119ULL, 0x1ef22c0ceee34193ULL, 0x693b739387cafa44ULL,
      0xa693bdb7af30c9c6ULL, 0xf295ffd6ac3d4445ULL, 0x74ff1ef93178dcb3ULL,
      0x73ba310ba8d52ee0ULL, 0xcc9a688390397ea5ULL, 0x6d8e7f433ed64765ULL,
      0xd09f312d747fa589ULL, 0xb8348930ba7971dbULL,
  };
  const auto got = partitioned_run(1);
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
  const auto got = partitioned_run(4);
  EXPECT_EQ(got, pinned) << "digests " << as_initializer(got);
}

}  // namespace
}  // namespace eclb::cluster
