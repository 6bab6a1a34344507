#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

namespace eclb::obs {
namespace {

TEST(Metrics, CounterStartsAtZeroAndAccumulates) {
  MetricsRegistry reg;
  auto& c = reg.counter("a");
  EXPECT_EQ(c.value(), 0U);
  c.inc();
  c.inc(5);
  EXPECT_EQ(c.value(), 6U);
}

TEST(Metrics, SameNameReturnsSameInstrument) {
  MetricsRegistry reg;
  auto& a = reg.counter("x");
  auto& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1U);
}

TEST(Metrics, FindReturnsNullForUnknownNames) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
  (void)reg.counter("yes");
  EXPECT_NE(reg.find_counter("yes"), nullptr);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry reg;
  auto& g = reg.gauge("g");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(Metrics, HistogramBinsAndOutliers) {
  MetricsRegistry reg;
  auto& h = reg.histogram("h", 0.0, 4.0, 4);
  h.observe(0.5);
  h.observe(2.5);
  h.observe(2.6);
  h.observe(-1.0);  // underflow
  h.observe(9.0);   // overflow
  EXPECT_EQ(h.bin(0), 1U);
  EXPECT_EQ(h.bin(1), 0U);
  EXPECT_EQ(h.bin(2), 2U);
  EXPECT_EQ(h.bin(3), 0U);
  EXPECT_EQ(h.underflow(), 1U);
  EXPECT_EQ(h.overflow(), 1U);
  EXPECT_EQ(h.count(), 5U);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 2.5 + 2.6 - 1.0 + 9.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(2), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(2), 3.0);
}

TEST(Metrics, HistogramMeanCoversAllObservations) {
  MetricsRegistry reg;
  auto& h = reg.histogram("h", 0.0, 1.0, 2);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.observe(0.25);
  h.observe(0.75);
  h.observe(3.0);  // overflow still counts toward the mean
  EXPECT_DOUBLE_EQ(h.mean(), (0.25 + 0.75 + 3.0) / 3.0);
}

TEST(Metrics, ConcurrentUpdatesFromManyThreadsAreLossless) {
  MetricsRegistry reg;
  auto& c = reg.counter("hits");
  auto& g = reg.gauge("sum");
  auto& h = reg.histogram("dist", 0.0, 1.0, 8);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &g, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(1.0);
        h.observe(0.5);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kPerThread));
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h.bin(4), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Metrics, ConcurrentRegistrationYieldsOneInstrumentPerName) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      seen[static_cast<std::size_t>(t)] = &reg.counter("shared");
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[static_cast<std::size_t>(t)]);
}

TEST(Metrics, WriteJsonIsDeterministicAndWellFormed) {
  MetricsRegistry reg;
  reg.counter("b.count").inc(2);
  reg.counter("a.count").inc(1);
  reg.gauge("g").set(1.5);
  reg.histogram("h", 0.0, 2.0, 2).observe(0.5);

  std::ostringstream first;
  reg.write_json(first);
  std::ostringstream second;
  reg.write_json(second);
  EXPECT_EQ(first.str(), second.str());

  const std::string json = first.str();
  // Sorted instrument names and the three sections.
  EXPECT_LT(json.find("\"a.count\": 1"), json.find("\"b.count\": 2"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"g\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"bins\": [1, 0]"), std::string::npos);
}

TEST(Metrics, MergeAddsEveryInstrumentAndCreatesMissingOnes) {
  MetricsRegistry shard0;
  shard0.counter("c").inc(2);
  shard0.gauge("backlog").set(1.5);
  shard0.histogram("h", 0.0, 2.0, 2).observe(0.5);
  MetricsRegistry shard1;
  shard1.counter("c").inc(3);
  shard1.gauge("backlog").set(2.25);
  shard1.histogram("h", 0.0, 2.0, 2).observe(1.5);
  shard1.histogram("h", 0.0, 2.0, 2).observe(7.0);
  shard1.counter("only_in_1").inc();

  MetricsRegistry fleet;
  fleet.merge(shard0);
  fleet.merge(shard1);
  EXPECT_EQ(fleet.find_counter("c")->value(), 5U);
  EXPECT_EQ(fleet.find_counter("only_in_1")->value(), 1U);
  // A per-shard level merges into the fleet level.
  EXPECT_DOUBLE_EQ(fleet.find_gauge("backlog")->value(), 3.75);
  const HistogramMetric* h = fleet.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 3U);
  EXPECT_EQ(h->bin(0), 1U);
  EXPECT_EQ(h->bin(1), 1U);
  EXPECT_EQ(h->overflow(), 1U);
  EXPECT_DOUBLE_EQ(h->sum(), 9.0);
}

TEST(Metrics, MergeIntoEmptyRegistryReproducesTheJson) {
  MetricsRegistry source;
  source.counter("c").inc(4);
  source.gauge("g").add(0.1);
  source.gauge("g").add(0.2);
  source.histogram("h", 0.0, 1.0, 4).observe(0.3);
  MetricsRegistry copy;
  copy.merge(source);
  std::ostringstream a;
  std::ostringstream b;
  source.write_json(a);
  copy.write_json(b);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace eclb::obs
