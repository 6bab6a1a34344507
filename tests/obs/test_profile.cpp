#include "obs/profile.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "experiment/runner.h"
#include "experiment/scenario.h"
#include "obs/observer.h"

namespace eclb::obs {
namespace {

TEST(Profile, RecordAggregatesPerPhase) {
  Profiler p;
  p.record("round", 0.5);
  p.record("round", 1.5);
  p.record("settle", 0.25);
  const auto snap = p.snapshot();
  ASSERT_EQ(snap.size(), 2U);
  EXPECT_EQ(snap[0].first, "round");
  EXPECT_EQ(snap[0].second.calls, 2U);
  EXPECT_DOUBLE_EQ(snap[0].second.total_seconds, 2.0);
  EXPECT_DOUBLE_EQ(snap[0].second.max_seconds, 1.5);
  EXPECT_EQ(snap[1].first, "settle");
  EXPECT_EQ(snap[1].second.calls, 1U);
}

TEST(Profile, ConcurrentRecordsAreLossless) {
  Profiler p;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&p] {
      for (int i = 0; i < kPerThread; ++i) p.record("shared", 0.001);
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = p.snapshot();
  ASSERT_EQ(snap.size(), 1U);
  EXPECT_EQ(snap[0].second.calls,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_NEAR(snap[0].second.total_seconds, kThreads * kPerThread * 0.001, 1e-6);
}

TEST(Profile, WriteListsEveryPhase) {
  Profiler p;
  p.record("alpha", 0.1);
  p.record("beta", 0.2);
  std::ostringstream out;
  p.write(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
  EXPECT_NE(text.find("calls"), std::string::npos);
}

TEST(Profile, ObservedRunRecordsClusterPhases) {
  // The cluster reports its internal phases only while observed; a profiled
  // replication must therefore see all three.
  auto cfg = experiment::paper_cluster_config(
      40, experiment::AverageLoad::kLow30, 3);
  Profiler profiler;
  ObsConfig oc;
  oc.profiler = &profiler;
  (void)experiment::run_replication(cfg, 5, nullptr, oc);

  const auto snap = profiler.snapshot();
  std::size_t round_calls = 0;
  bool saw_settle = false;
  bool saw_placement = false;
  for (const auto& [name, stats] : snap) {
    if (name == "round") round_calls = stats.calls;
    if (name == "cstate_settle") saw_settle = true;
    if (name == "placement_search") saw_placement = true;
  }
  EXPECT_EQ(round_calls, 5U);
  EXPECT_TRUE(saw_settle);
  EXPECT_TRUE(saw_placement);
}

}  // namespace
}  // namespace eclb::obs
