// Request driver tests: conservation of requests, recorder plumbing,
// bit-identical replay, thread-count-independent fabric sessions, and the
// overload-resilience layers (admission shedding, migration draining,
// crash-stranded fault failures).
#include "experiment/request_driver.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fabric.h"
#include "experiment/scenario.h"
#include "fault/injector.h"

namespace eclb::experiment {
namespace {

workload::engine::RequestWorkloadConfig parse_workload(const char* spec) {
  std::string error;
  const auto cfg = workload::engine::RequestWorkloadConfig::parse(spec, &error);
  EXPECT_TRUE(cfg.has_value()) << error;
  return *cfg;
}

cluster::ClusterConfig driver_cluster_config(std::size_t servers,
                                             std::uint64_t seed) {
  auto cfg = paper_cluster_config(servers, AverageLoad::kLow30, seed);
  cfg.demand_evolution_enabled = false;
  return cfg;
}

TEST(RequestDriver, ConservesEveryRoutedRequest) {
  cluster::Cluster c(driver_cluster_config(30, 11));
  RequestDriver driver(
      c, parse_workload("poisson:rate=60,mean=0.2;flash:rate=20;seed=4"));
  ASSERT_TRUE(driver.ok());
  for (int i = 0; i < 6; ++i) {
    driver.advance_interval();
    c.step();
    // Every generated request is routed (live VMs exist in this fault-free
    // run), and every routed request is completed, dropped, or still queued.
    const SlaSummary s = driver.summary();
    EXPECT_EQ(s.arrived, driver.total_generated());
    EXPECT_EQ(s.arrived, s.completed + s.dropped + driver.queued());
  }
  const SlaSummary s = driver.summary();
  EXPECT_GT(s.arrived, 0U);
  EXPECT_GT(s.completed, 0U);
  EXPECT_EQ(s.histogram.count(), s.completed);
  EXPECT_GE(s.completed, s.sla_violations);
}

TEST(RequestDriver, BooksBatchesIntoTheIntervalReport) {
  cluster::Cluster c(driver_cluster_config(20, 7));
  RequestDriver driver(c, parse_workload("poisson:rate=40,mean=0.1;seed=2"));
  ASSERT_TRUE(driver.ok());
  std::uint64_t reported_arrived = 0;
  std::uint64_t reported_completed = 0;
  double last_backlog = 0.0;
  for (int i = 0; i < 5; ++i) {
    driver.advance_interval();
    const auto report = c.step();
    reported_arrived += report.requests_arrived;
    reported_completed += report.requests_completed;
    last_backlog = report.request_backlog;
  }
  // The per-interval deltas in the reports must sum to the driver's totals,
  // and the report's backlog gauge is the driver's current level.
  const SlaSummary s = driver.summary();
  EXPECT_EQ(reported_arrived, s.arrived);
  EXPECT_EQ(reported_completed, s.completed);
  EXPECT_DOUBLE_EQ(last_backlog, s.backlog);
}

TEST(RequestDriver, BackloggedVmsReceiveNonZeroDemand) {
  cluster::Cluster c(driver_cluster_config(20, 3));
  RequestDriver driver(c, parse_workload("poisson:rate=100,mean=0.3;seed=9"));
  ASSERT_TRUE(driver.ok());
  for (int i = 0; i < 3; ++i) {
    driver.advance_interval();
    c.step();
  }
  // With a steady offered load some VM must be asking for capacity.
  double total_demand = 0.0;
  for (const auto& server : c.servers()) {
    for (const auto& vm : server.vms()) total_demand += vm.demand();
  }
  EXPECT_GT(total_demand, 0.0);
}

TEST(RequestDriver, ReplayIsBitIdentical) {
  const auto workload = parse_workload(
      "diurnal:rate=50,amp=0.6,period=1200,mean=0.2;seed=6");
  auto run = [&] {
    cluster::Cluster c(driver_cluster_config(25, 21));
    RequestDriver driver(c, workload);
    EXPECT_TRUE(driver.ok());
    for (int i = 0; i < 8; ++i) {
      driver.advance_interval();
      c.step();
    }
    return driver.summary();
  };
  const SlaSummary a = run();
  const SlaSummary b = run();
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.backlog, b.backlog);
}

TEST(RequestDriver, TailDropShedsAtTheCapAndStaysBalanced) {
  cluster::Cluster c(driver_cluster_config(10, 17));
  // Offered load far beyond a 10-server fleet, backlog capped at 4 queued
  // requests per VM: tail-drop must start refusing arrivals.
  RequestDriver driver(
      c, parse_workload("poisson:rate=400,mean=0.3;seed=3;admit=tail-drop;"
                        "cap=4"));
  ASSERT_TRUE(driver.ok());
  for (int i = 0; i < 5; ++i) {
    driver.advance_interval();
    c.step();
    EXPECT_EQ(driver.audit(), std::nullopt);
  }
  const SlaSummary s = driver.summary();
  EXPECT_GT(s.shed, 0U);
  EXPECT_GT(s.completed, 0U);
  // Shed requests never touch a queue: arrived counts only admissions.
  EXPECT_EQ(driver.total_generated(), s.arrived + s.shed);
  EXPECT_EQ(driver.total_generated(),
            s.completed + s.shed + s.dropped + s.failed_by_fault +
                driver.queued());
}

TEST(RequestDriver, DeadlineShedTracksTheWaitBudget) {
  const char* base = "poisson:rate=300,mean=0.3,sla=0.5;seed=3";
  // A one-millisecond budget sheds nearly everything that finds a queue
  // occupied; a huge budget admits everything.
  auto run = [&](const std::string& extra) {
    cluster::Cluster c(driver_cluster_config(10, 17));
    RequestDriver driver(c, parse_workload((base + extra).c_str()));
    EXPECT_TRUE(driver.ok());
    for (int i = 0; i < 4; ++i) {
      driver.advance_interval();
      c.step();
      EXPECT_EQ(driver.audit(), std::nullopt);
    }
    return driver.summary();
  };
  const SlaSummary tight = run(";admit=deadline-shed;budget=0.001");
  const SlaSummary loose = run(";admit=deadline-shed;budget=1e6");
  const SlaSummary open = run("");
  EXPECT_GT(tight.shed, 0U);
  EXPECT_EQ(loose.shed, 0U);
  EXPECT_EQ(open.shed, 0U);
  // With an unreachable budget the policy is inert: identical to admit=none.
  EXPECT_EQ(loose.digest(), open.digest());
  EXPECT_LT(tight.backlog, open.backlog);
}

TEST(RequestDriver, DrainWindowKeepsTheBooksBalancedUnderMigrations) {
  // A lightly loaded fleet consolidates aggressively, so VMs migrate while
  // their queues hold work; the drain window must keep conservation exact
  // and the replay bit-identical.
  const auto workload = parse_workload(
      "poisson:rate=30,mean=0.2;seed=12;drain=3");
  auto run = [&] {
    cluster::Cluster c(driver_cluster_config(30, 5));
    RequestDriver driver(c, workload);
    EXPECT_TRUE(driver.ok());
    std::size_t migrations = 0;
    for (int i = 0; i < 10; ++i) {
      driver.advance_interval();
      migrations += c.step().migrations;
      EXPECT_EQ(driver.audit(), std::nullopt) << "interval " << i;
    }
    EXPECT_GT(migrations, 0U);  // The scenario must actually migrate.
    return driver.summary();
  };
  const SlaSummary a = run();
  const SlaSummary b = run();
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(RequestDriver, CrashStrandsRequestsAsFaultFailures) {
  // Crash most of a small fleet with no recovery: displaced VMs cannot all
  // be re-placed, so their queued requests must surface as failed_by_fault
  // -- not as silent drops -- and the books must still balance.
  fault::FaultPlan plan;
  for (std::uint64_t s = 0; s < 7; ++s) {
    plan.crash(common::Seconds{120.0}, common::ServerId{s});
  }
  cluster::Cluster c(driver_cluster_config(10, 29));
  fault::FaultInjector injector(c, plan);
  RequestDriver driver(c, parse_workload("poisson:rate=120,mean=0.3;seed=8"));
  ASSERT_TRUE(driver.ok());
  for (int i = 0; i < 8; ++i) {
    driver.advance_interval();
    c.step();
    ASSERT_EQ(driver.audit(), std::nullopt) << "interval " << i;
  }
  const SlaSummary s = driver.summary();
  EXPECT_GT(s.failed_by_fault, 0U);
  EXPECT_EQ(driver.total_generated(),
            s.completed + s.shed + s.dropped + s.failed_by_fault +
                driver.queued());
}

TEST(RequestDriver, ResilienceSpecRoundTrips) {
  const auto cfg = parse_workload(
      "poisson:rate=50;seed=4;admit=tail-drop;cap=9;drain=2");
  EXPECT_EQ(cfg.admission, workload::engine::AdmissionPolicy::kTailDrop);
  EXPECT_EQ(cfg.admission_cap, 9U);
  EXPECT_EQ(cfg.drain_intervals, 2U);
  const auto round = parse_workload(cfg.to_spec().c_str());
  EXPECT_EQ(round.admission, cfg.admission);
  EXPECT_EQ(round.admission_cap, cfg.admission_cap);
  EXPECT_EQ(round.drain_intervals, cfg.drain_intervals);
  const auto budget = parse_workload(
      "poisson:rate=50;admit=deadline-shed;budget=0.25");
  EXPECT_EQ(budget.admission, workload::engine::AdmissionPolicy::kDeadlineShed);
  EXPECT_DOUBLE_EQ(budget.admission_budget_seconds, 0.25);
  const auto budget_round = parse_workload(budget.to_spec().c_str());
  EXPECT_DOUBLE_EQ(budget_round.admission_budget_seconds, 0.25);
  // Defaults spell nothing new: the spec string stays PR 8-compatible.
  const auto plain = parse_workload("poisson:rate=50");
  EXPECT_EQ(plain.to_spec().find("admit"), std::string::npos);
  EXPECT_EQ(plain.to_spec().find("drain"), std::string::npos);
}

TEST(RequestDriver, RejectsMissingTraceStream) {
  cluster::Cluster c(driver_cluster_config(10, 1));
  RequestDriver driver(c,
                       parse_workload("trace:file=/nonexistent/missing.trs"));
  EXPECT_FALSE(driver.ok());
  EXPECT_FALSE(driver.error().empty());
}

TEST(ShardWorkloadConfig, SplitsRatesAndDerivesSeeds) {
  const auto base =
      parse_workload("poisson:rate=90;trace:file=/tmp/x.trs,scale=3;seed=5");
  const auto s0 = shard_workload_config(base, 0, 3);
  const auto s1 = shard_workload_config(base, 1, 3);
  EXPECT_DOUBLE_EQ(s0.streams[0].rate, 30.0);
  EXPECT_DOUBLE_EQ(s0.streams[1].trace_scale, 1.0);
  EXPECT_NE(s0.seed, s1.seed);  // Shards draw distinct arrival sequences.
  // One shard of one is the identity.
  const auto whole = shard_workload_config(base, 0, 1);
  EXPECT_DOUBLE_EQ(whole.streams[0].rate, 90.0);
  EXPECT_EQ(whole.seed, base.seed);
}

TEST(FabricRequestSession, MergesShardSummaries) {
  cluster::FabricConfig fcfg;
  fcfg.shard_count = 3;
  fcfg.threads = 1;
  fcfg.cluster_template = driver_cluster_config(15, 19);
  cluster::Fabric fabric(fcfg);
  FabricRequestSession session(
      fabric, parse_workload("poisson:rate=60,mean=0.2;seed=8"));
  ASSERT_TRUE(session.ok());
  ASSERT_EQ(session.size(), 3U);
  for (int i = 0; i < 4; ++i) {
    session.advance_interval();
    fabric.step();
  }
  const SlaSummary merged = session.summary();
  std::uint64_t arrived = 0;
  std::uint64_t completed = 0;
  for (std::size_t s = 0; s < session.size(); ++s) {
    arrived += session.driver(s).summary().arrived;
    completed += session.driver(s).summary().completed;
  }
  EXPECT_EQ(merged.arrived, arrived);
  EXPECT_EQ(merged.completed, completed);
  EXPECT_GT(merged.arrived, 0U);
}

TEST(FabricRequestSession, ThreadCountDoesNotChangeTheRun) {
  // The shard drivers advance on the fabric's workers; admission shedding,
  // migration draining and crash-stranded failures all run inside that
  // parallel advance, and none of them may depend on the worker count.
  const auto workload = parse_workload(
      "flash:rate=180,burst=5,on=120,off=500,mean=0.2;seed=14;"
      "admit=tail-drop;cap=12;drain=2");
  fault::FaultPlan plan;
  plan.crash(common::Seconds{150.0}, common::ServerId{2});
  plan.crash(common::Seconds{150.0}, common::ServerId{3});
  plan.crash(common::Seconds{270.0}, common::ServerId{7});
  std::size_t migrations = 0;
  auto run = [&](std::size_t threads, SlaSummary* summary) {
    cluster::FabricConfig fcfg;
    fcfg.shard_count = 4;
    fcfg.threads = threads;
    fcfg.cluster_template = driver_cluster_config(12, 23);
    cluster::Fabric fabric(fcfg);
    const fault::FabricFaultSession faults(fabric, plan);
    FabricRequestSession session(fabric, workload);
    EXPECT_TRUE(session.ok());
    std::vector<std::uint64_t> digests;
    for (int i = 0; i < 8; ++i) {
      session.advance_interval();
      const cluster::FabricIntervalReport report = fabric.step();
      for (const auto& c : report.clusters) migrations += c.migrations;
      digests.push_back(cluster::fabric_report_digest(report));
      digests.push_back(session.summary().digest());
      EXPECT_EQ(session.audit(), std::nullopt) << "interval " << i;
    }
    digests.push_back(fabric.state_digest());
    *summary = session.summary();
    return digests;
  };
  SlaSummary summary;
  const auto one = run(1, &summary);
  EXPECT_GT(summary.shed, 0U);
  EXPECT_GT(summary.failed_by_fault, 0U);
  EXPECT_GT(migrations, 0U);  // Moves under the drain window.
  SlaSummary ignored;
  EXPECT_EQ(run(2, &ignored), one);
  EXPECT_EQ(run(8, &ignored), one);
}

}  // namespace
}  // namespace eclb::experiment
