// Request-plane runs pinned end to end.
//
// Seven request workloads on a 4-shard fabric -- a flash crowd with
// migration draining, tail-drop admission, deadline-shed admission, a
// crash + partition plan under which VMs vanish with queued work, a
// multi-stream mix on a fleet with fewer live VMs than streams, 1000-server
// shards that consolidate onto hosts of many equal-demand VMs, and one run
// that combines deadline-shed, a drain window, crashes and streams with no
// owned VM -- each run at 1, 3 and 4 fabric threads (3 workers claim 4
// shards unevenly).  Every interval records the fabric report digest and
// the merged SlaSummary digest (the report digest carries no request
// counters); the trail ends with the fabric state digest and the final
// SlaSummary digest.  The request conservation audit must hold after every
// interval.  The first four scenarios' constants were captured while the
// driver still kept its queues in VmId-ordered maps of deque-backed FIFOs
// and advanced the shards serially, so they prove that dense per-VM
// storage, vector-backed queues and the parallel advance change nothing.
// The sparse multi-stream scenario was captured while the pool still gave
// each worker a fixed block of shards, sojourns were binned by log10 and
// routing took a modulo per request.  The consolidated-fleet scenario was
// captured while ShedOverloaded still sorted the donor's roster before
// every migration and the driver wrote demands back one VM at a time.  The
// combined scenario was captured while every VM still had a queue vector of
// its own, routed to in one loop and served in another, so with the others
// it proves that the carry buffer and the one slot-order pass change
// nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cluster/fabric.h"
#include "experiment/request_driver.h"
#include "experiment/scenario.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "server/server.h"
#include "vm/vm.h"

namespace eclb::experiment {
namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kIntervals = 14;

struct Scenario {
  const char* workload;      ///< --requests spec (fabric-wide rates).
  std::size_t servers;       ///< Servers per shard.
  std::uint64_t seed;        ///< Cluster template seed.
  const char* faults;        ///< Per-shard fault plan, nullptr for none.
  std::size_t intervals{kIntervals};
};

/// What a run exercised, beyond its digests: the pinned scenarios must keep
/// reaching the branches they exist to cover.
struct Coverage {
  SlaSummary summary;
  std::size_t migrations{0};
  /// (shard, interval, stream) windows in which the stream owned no live VM
  /// while the shard had some: its arrivals were routed over the whole
  /// fleet.
  std::size_t fleet_fallbacks{0};
};

/// Counts the streams that own none of `c`'s live VMs, by the driver's
/// ownership rule (application index mod stream count); 0 when the shard
/// has no VM at all.
std::size_t streams_without_vms(const cluster::Cluster& c,
                                std::size_t nstreams) {
  std::vector<bool> owned(nstreams, false);
  bool any = false;
  for (const server::Server& s : c.servers()) {
    for (const vm::Vm& v : s.vms()) {
      owned[v.app().index() % nstreams] = true;
      any = true;
    }
  }
  if (!any) return 0;
  std::size_t missing = 0;
  for (const bool o : owned) missing += o ? 0 : 1;
  return missing;
}

struct Trail {
  std::vector<std::uint64_t> digests;
  Coverage coverage;
};

Trail run(const Scenario& sc, std::size_t threads) {
  cluster::FabricConfig fcfg;
  fcfg.shard_count = kShards;
  fcfg.threads = threads;
  fcfg.cluster_template =
      paper_cluster_config(sc.servers, AverageLoad::kLow30, sc.seed);
  fcfg.cluster_template.demand_evolution_enabled = false;
  cluster::Fabric fabric(fcfg);

  std::optional<fault::FabricFaultSession> faults;
  if (sc.faults != nullptr) {
    std::string error;
    const auto plan = fault::FaultPlan::parse(sc.faults, &error);
    EXPECT_TRUE(plan.has_value()) << error;
    if (!plan.has_value()) return {};
    faults.emplace(fabric, *plan);
  }
  std::string error;
  const auto workload =
      workload::engine::RequestWorkloadConfig::parse(sc.workload, &error);
  EXPECT_TRUE(workload.has_value()) << error;
  if (!workload.has_value()) return {};
  FabricRequestSession session(fabric, *workload);
  EXPECT_TRUE(session.ok());

  Trail trail;
  for (std::size_t i = 0; i < sc.intervals; ++i) {
    for (std::size_t k = 0; k < fabric.size(); ++k) {
      trail.coverage.fleet_fallbacks +=
          streams_without_vms(fabric.cluster(k), workload->streams.size());
    }
    session.advance_interval();
    const cluster::FabricIntervalReport report = fabric.step();
    for (const auto& c : report.clusters) {
      trail.coverage.migrations += c.migrations;
    }
    trail.digests.push_back(cluster::fabric_report_digest(report));
    trail.digests.push_back(session.summary().digest());
    const auto audit = session.audit();
    EXPECT_FALSE(audit.has_value()) << "interval " << i << ": " << *audit;
  }
  trail.digests.push_back(fabric.state_digest());
  trail.coverage.summary = session.summary();
  trail.digests.push_back(trail.coverage.summary.digest());
  return trail;
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

/// Runs `sc` at 1, 3 and 4 threads; every trail must equal `pinned`.
/// Returns the 1-thread coverage for the scenario's own branch checks.
Coverage expect_pinned(const Scenario& sc,
                       const std::vector<std::uint64_t>& pinned) {
  const Trail one = run(sc, 1);
  EXPECT_EQ(one.digests, pinned) << "digests " << as_initializer(one.digests);
  for (const std::size_t threads : {std::size_t{3}, std::size_t{4}}) {
    const Trail t = run(sc, threads);
    EXPECT_EQ(t.digests, pinned)
        << threads << "-thread digests " << as_initializer(t.digests);
  }
  return one.coverage;
}

TEST(RequestPlanePinned, FlashDrainDigestsPinned) {
  // A lightly loaded fleet consolidates, so VMs migrate while their queues
  // hold work and the two-interval drain window keeps residues behind.
  const Scenario sc{
      "flash:rate=160,burst=8,on=120,off=300,mean=0.2;seed=12;drain=2", 20,
      5, nullptr};
  const std::vector<std::uint64_t> pinned = {
      0x824aeea6f9fa3d3cULL, 0xe77d7231bbc5a513ULL, 0x0ec61d1b51bc5994ULL,
      0xa839fc51a9883ed8ULL, 0x36270c6e08efa379ULL, 0x8d70a21d7a49fb29ULL,
      0x3961ffb75042549aULL, 0xc2eedf15ec3c5b34ULL, 0xf3ed72d8dbe46733ULL,
      0xf9f40cfd95816d92ULL, 0x2df5032699938bfcULL, 0xba83372a5218bf1cULL,
      0x2fb03c8acb628b4bULL, 0x88eb942f64cdacecULL, 0x8939e102995e7b7fULL,
      0xc4ec46e5c0295b07ULL, 0x2d831bcad5885d57ULL, 0x08282d139d433691ULL,
      0xc389f7f89be1e1f5ULL, 0xf739764757c01ac1ULL, 0x38d0cbc04ee9d398ULL,
      0x37c62fecb138d2c2ULL, 0xa0f7c4707c77f7abULL, 0x06441ce09ec6ee02ULL,
      0x90213ee636713bf2ULL, 0xf78ddee6a61eba09ULL, 0x1ba4adfcce94505eULL,
      0xff828c8e6476549dULL, 0x9bb10ea86e7663feULL, 0xff828c8e6476549dULL,
  };
  const Coverage cov = expect_pinned(sc, pinned);
  EXPECT_GT(cov.migrations, 0U);
  EXPECT_GT(cov.summary.completed, 0U);
}

TEST(RequestPlanePinned, TailDropDigestsPinned) {
  // Offered work far past the fleet's capacity against a 6-request cap.
  const Scenario sc{
      "poisson:rate=800,mean=0.3;seed=3;admit=tail-drop;cap=6", 10, 17,
      nullptr};
  const std::vector<std::uint64_t> pinned = {
      0xd77a22b611a700e9ULL, 0x5a0b0d72847964daULL, 0x9bc1d69f2f8095c5ULL,
      0xf98889057eb7ca73ULL, 0xa046d0f51c91c458ULL, 0x7f3f39da711ec887ULL,
      0x76920dbe46f84013ULL, 0xdd07a1a37cf6cd13ULL, 0xd6b4be132f89e148ULL,
      0x6fbe58b3fff4a7d5ULL, 0x08ec20ca0c68a85bULL, 0xdc82b072d1bf232eULL,
      0x1ce7a4ef060791baULL, 0x6d18105ac715553bULL, 0x2b9481a347d9b157ULL,
      0xc18b4d5344b3644eULL, 0x43452ff86be338b0ULL, 0xea9295eb6d8319adULL,
      0xa71ac91129f47d90ULL, 0x863ebc2104978d84ULL, 0xb84d1bbc38e891b3ULL,
      0xb70984a25b6dde82ULL, 0x5548f212e6e932afULL, 0x654fc9f809165b8dULL,
      0x79803f6663a54ed2ULL, 0x85d4bdd1bc8f4f89ULL, 0xa67b01e831fcd49cULL,
      0x105e2aeb96b8e347ULL, 0x3d6ac6bdaed78983ULL, 0x105e2aeb96b8e347ULL,
  };
  const Coverage cov = expect_pinned(sc, pinned);
  EXPECT_GT(cov.summary.shed, 0U);
  EXPECT_GT(cov.summary.completed, 0U);
}

TEST(RequestPlanePinned, DeadlineShedDigestsPinned) {
  // No explicit budget: each arrival sheds against its own stream's SLA.
  const Scenario sc{
      "poisson:rate=600,mean=0.3,sla=2;diurnal:rate=200,amp=0.5,period=900,"
      "mean=0.1,sla=0.5;seed=9;admit=deadline-shed",
      10, 31, nullptr};
  const std::vector<std::uint64_t> pinned = {
      0x86ebcc2016a110fbULL, 0xea9fb4d84d9e62ddULL, 0xeb8d6221a7bce7e1ULL,
      0x835ea0a1092a59f0ULL, 0x0a9a317557263c48ULL, 0x8908c45dfd2c0a0cULL,
      0x1df37d81c3ff1443ULL, 0x39a34a63a9a4d283ULL, 0x9b38ef8e02409f78ULL,
      0xa2c17253feb51783ULL, 0xd511d623c5848d17ULL, 0x08e45a6aa58a24bbULL,
      0x80831ea2b64aa6abULL, 0x9141c14b22e9b6f3ULL, 0xa822978169085b08ULL,
      0xfa2a4f2582862bc3ULL, 0x0b9fd38f40086fd4ULL, 0xd4b3ae71cbb78d26ULL,
      0x1997a32cf170be29ULL, 0x1dea11fb98365b93ULL, 0x4a724b63aa10b185ULL,
      0x9d70a6eb2e223233ULL, 0xbed2a49942b26470ULL, 0xcc1046c92feda22aULL,
      0x4c8616c089075d4bULL, 0x9d69f644f9f64969ULL, 0xf1fde4862034fe97ULL,
      0x6ffec9109fe74bc1ULL, 0x7a1b41ac86a3b87eULL, 0x6ffec9109fe74bc1ULL,
  };
  const Coverage cov = expect_pinned(sc, pinned);
  EXPECT_GT(cov.summary.shed, 0U);
  EXPECT_GT(cov.summary.completed, 0U);
}

TEST(RequestPlanePinned, CrashPartitionDigestsPinned) {
  // Crashes strand queued requests and drain residues (failed_by_fault);
  // orphans are re-placed under fresh VM ids, and the heal retires
  // duplicate shadows, so queues of vanished VMs are dropped.
  const Scenario sc{
      "poisson:rate=240,mean=0.2;flash:rate=80,burst=6;seed=21;drain=2", 24,
      2024,
      "crash@180:s=3;crash@180:s=4;crash@240:s=5;part@300:g=0-11|12-23,"
      "heal=540;crash@420:s=14;recover@600:s=3;migfail@0:p=0.1;seed=5"};
  const std::vector<std::uint64_t> pinned = {
      0x38cd46f5dc4de2a2ULL, 0x027b29023e57b1baULL, 0x47f948a528769af2ULL,
      0x6f19875502526aaaULL, 0xb26b908c8480daa9ULL, 0xdc72b4200551c253ULL,
      0xf9ff5ef387ed12e5ULL, 0x169feb7cf8a7035fULL, 0xbabcdfcd73915da8ULL,
      0xeab696a03f31d66dULL, 0x4e57347d438c13fdULL, 0xe68a7e165872e58fULL,
      0xb7dd5b8785527650ULL, 0x908dbe9fcbfab92bULL, 0x7040d8ab69666140ULL,
      0xc922888edd3e9db3ULL, 0x443faeb4073feba0ULL, 0x985b52969c481a3bULL,
      0x9a005ef3cbfaccb8ULL, 0x1441e7831a71f513ULL, 0x2128dac386f0487fULL,
      0x7be54e2663af3b10ULL, 0xb2ee577c2689645cULL, 0x0beee753afefcda3ULL,
      0x06ae4895f3a4e283ULL, 0x1f5b872546bbb9a4ULL, 0x735986c5d8442356ULL,
      0x44569efb20392b0cULL, 0x6dcf68f629d76787ULL, 0x44569efb20392b0cULL,
  };
  const Coverage cov = expect_pinned(sc, pinned);
  EXPECT_GT(cov.summary.failed_by_fault, 0U);
  EXPECT_GT(cov.summary.dropped, 0U);
}

TEST(RequestPlanePinned, SparseFleetMultiStreamDigestsPinned) {
  // Six streams over one-server shards of a few VMs each: streams that own
  // no live VM route their arrivals over the whole shard, beside the owned
  // round-robin of the others.
  const Scenario sc{
      "poisson:rate=40,mean=0.2;poisson:rate=24,mean=0.1,sla=1;"
      "diurnal:rate=16,amp=0.5,period=600,mean=0.3;"
      "flash:rate=8,burst=6,on=60,off=180;"
      "poisson:rate=12,service=lognormal,sigma=0.8;"
      "poisson:rate=8,service=pareto,alpha=2.5;seed=44;drain=1",
      1, 77, nullptr};
  const std::vector<std::uint64_t> pinned = {
      0xec635d12bedfc17bULL, 0x403e551ada285378ULL, 0xfd8610c49000e373ULL,
      0x914d708554be224cULL, 0xb7308fd5b07ca784ULL, 0xb8976b128aad7492ULL,
      0x814c988120323e1cULL, 0x6aefc652735eb1afULL, 0x2bb2a50469a1a7e4ULL,
      0xc2f9c674f9e6fa8aULL, 0x811d66de5802ef9cULL, 0xec50a4f04aa01f88ULL,
      0x119be7859003eb84ULL, 0xb035738adc584f96ULL, 0xaa9f2a99dccadd9cULL,
      0x892791279992c9fbULL, 0x3b4bc249892855a4ULL, 0x279f2a03398b3443ULL,
      0x2f77941d3f1b7efcULL, 0x49d6e0990dbe241cULL, 0xab2039e146f7e2f4ULL,
      0x9ec4c1bfb66ad6dfULL, 0xbeffd9603623a53cULL, 0x90baf0c8435c6893ULL,
      0x8a60e933709964d4ULL, 0x87cec8e701364f6bULL, 0xd84f4d5629a5d3ecULL,
      0xdc8b118309d71866ULL, 0x77ef9c04720a2a93ULL, 0xdc8b118309d71866ULL,
  };
  const Coverage cov = expect_pinned(sc, pinned);
  EXPECT_GT(cov.fleet_fallbacks, 0U);
  EXPECT_GT(cov.summary.completed, 0U);
}

TEST(RequestPlanePinned, ConsolidatedFleetDigestsPinned) {
  // 1000-server shards under request-driven demand consolidate onto R5
  // hosts carrying dozens of VMs, many at the same demand.  Shedding such a
  // host picks among equal demands in std::sort's order, which above 16 VMs
  // is not roster order: picking the roster-first VM instead changes these
  // digests from interval 14 on.
  const Scenario sc{"poisson:rate=800;flash:rate=200,burst=8", 1000, 3,
                    nullptr, 20};
  const std::vector<std::uint64_t> pinned = {
      0x5fc3c9ebb176458bULL, 0xcdf8af37b76e2b10ULL, 0x37b0330b240cb556ULL,
      0x153c01d5c2b91ffbULL, 0x115a5b5b1a810602ULL, 0xfb97e38653365d77ULL,
      0xd9eb4f6ecf6ec1e1ULL, 0x4dcae31fabcbce68ULL, 0xa78c24c8921de33fULL,
      0xb2c20e7172e5a0f8ULL, 0x7f6eed9b01f58363ULL, 0xd8cffde3788c205eULL,
      0x0ecdefcb399f202cULL, 0xdf4186615d8526a5ULL, 0x1a019823f8e009dcULL,
      0x83d359ecbdc187d7ULL, 0xe6da8a6ce274a431ULL, 0x8b497624dae83577ULL,
      0x9ef921907b5148b0ULL, 0xdf7fcb2dd41afe59ULL, 0x9257aca3cb169b3cULL,
      0xc69ff381448ba3beULL, 0xf968106e2bab1625ULL, 0x31de2a2cd7bdd74cULL,
      0x3268b90cf078d9f5ULL, 0xa8c50b196b3a0a15ULL, 0xe81e4dd979894106ULL,
      0x13015cee5ca7cc78ULL, 0x3dab5c3c312403d9ULL, 0x686f60a7e416d805ULL,
      0x24a0c1c634084a00ULL, 0x6aa5bcf48cb576d0ULL, 0x0f75b534e28fb3d5ULL,
      0x4802cb76340f58e0ULL, 0x660fd9f70fbe26abULL, 0xf2d8d5af17db57d2ULL,
      0x9c76fc130796d385ULL, 0xffbaec58719b64d7ULL, 0x9eb4ed83bdd7a86bULL,
      0xbd400825b8ca7f30ULL, 0xa6a26e87459d18f0ULL, 0xbd400825b8ca7f30ULL,
  };
  const Coverage cov = expect_pinned(sc, pinned);
  EXPECT_GT(cov.migrations, 0U);
  EXPECT_GT(cov.summary.completed, 0U);
}

TEST(RequestPlanePinned, ShedDrainCrashFallbackDigestsPinned) {
  // Every request-plane path in one run: deadline-shed admission against
  // queues that carry work across windows, a two-interval drain window
  // under consolidation, crashes that strand queues and residues, VMs that
  // vanish with queued work, and more streams than a three-server shard has
  // applications, so some streams route over the whole shard.  The crash
  // of server 0 leaves low-numbered applications unplaced for a while, so
  // a stream that lost its VMs routes over VMs owned by higher-numbered
  // streams, and each such VM must take the arrivals in stream order.
  const Scenario sc{
      "poisson:rate=16,mean=0.25,sla=3;poisson:rate=8,mean=0.1,sla=1;"
      "flash:rate=4,burst=6,on=60,off=180;"
      "diurnal:rate=4,amp=0.5,period=600,mean=0.3;poisson:rate=2;"
      "poisson:rate=2,mean=0.4;poisson:rate=1;poisson:rate=1,sla=0.5;"
      "poisson:rate=1,mean=0.2;poisson:rate=1,sla=2;poisson:rate=0.5;"
      "poisson:rate=0.5,mean=0.6;"
      "seed=51;admit=deadline-shed;budget=60;drain=2",
      3, 19, "crash@180:s=0;crash@300:s=2;recover@600:s=0;seed=7", 18};
  const std::vector<std::uint64_t> pinned = {
      0x0a2ca9124fa437a9ULL, 0x2a59570289b66d23ULL, 0xe662dc160e3103f1ULL,
      0x3de1e24bcb20b656ULL, 0x7df95a111e64e387ULL, 0x06ac32a390ea737bULL,
      0x022a6cf8740c0027ULL, 0xae53a9fb615971fbULL, 0xd12e38c7a3f0c6ecULL,
      0xceffe378a73d7028ULL, 0xb7f84a938ed67eaaULL, 0xf6c5c503a63c0e8eULL,
      0xb374d6a9813213c8ULL, 0xcd90b303ee3f1719ULL, 0x3aeb6501714e373cULL,
      0x1d890b1da7ea2ec7ULL, 0x949b6fde2e8a4680ULL, 0x3268ce84dc7e004bULL,
      0x8b296f19a4660d2dULL, 0x64df8f74bd47d7aaULL, 0x4bb90801c23432dfULL,
      0xaf1da57d3ecc6477ULL, 0xfe77ab4e5f63eeffULL, 0x4755ffaf6967f18dULL,
      0xbba2fc8c74bfa05eULL, 0xfb0ff122b0661334ULL, 0xa69425a0dde71518ULL,
      0xe104eae45f1b6bf1ULL, 0xf4a845ade7743d00ULL, 0x542d0bd299388351ULL,
      0xd1030cf7a6b7681aULL, 0x65c026ac77c4c9f4ULL, 0xe9c0843e7a723e89ULL,
      0xf26cc9f7267ee861ULL, 0xb8b5869a135ccbc6ULL, 0xade926039f331a67ULL,
      0x10e8e842bb27e93dULL, 0xade926039f331a67ULL,
  };
  const Coverage cov = expect_pinned(sc, pinned);
  EXPECT_GT(cov.summary.shed, 0U);
  EXPECT_GT(cov.summary.failed_by_fault, 0U);
  EXPECT_GT(cov.summary.dropped, 0U);
  EXPECT_GT(cov.migrations, 0U);
  EXPECT_GT(cov.fleet_fallbacks, 0U);
  EXPECT_GT(cov.summary.completed, 0U);
}

}  // namespace
}  // namespace eclb::experiment
