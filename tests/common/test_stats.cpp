#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace eclb::common {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1U);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations is 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10.0;
    whole.add(x);
    (i < 20 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2U);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2U);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bin_count(), 5U);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, SamplesLandInCorrectBins) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0);   // bin 0
  h.add(2.0);   // bin 1
  h.add(9.99);  // bin 4
  EXPECT_DOUBLE_EQ(h.bin_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_weight(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_weight(4), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
}

TEST(Histogram, OutOfRangeCountedSeparately) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(99.0, 2.0);
  // Outliers no longer fold into the edge bins; they are tallied apart.
  EXPECT_DOUBLE_EQ(h.bin_weight(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_weight(3), 0.0);
  EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 0.0);
  EXPECT_DOUBLE_EQ(h.total_observed(), 3.0);
}

TEST(Histogram, BoundariesSplitInRangeFromOutliers) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.0);   // lo is inclusive
  h.add(1.0);   // hi is exclusive -> overflow
  EXPECT_DOUBLE_EQ(h.bin_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(h.overflow(), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 1.0);
  EXPECT_DOUBLE_EQ(h.total_observed(), 2.0);
}

TEST(Histogram, WeightedSamples) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25, 2.5);
  h.add(0.75, 1.5);
  EXPECT_DOUBLE_EQ(h.bin_weight(0), 2.5);
  EXPECT_DOUBLE_EQ(h.bin_weight(1), 1.5);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Percentile, EmptyReturnsNullopt) {
  EXPECT_FALSE(percentile({}, 50.0).has_value());
}

TEST(Percentile, SingleElement) {
  const double data[] = {7.0};
  EXPECT_DOUBLE_EQ(*percentile(data, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(*percentile(data, 100.0), 7.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const double data[] = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(*percentile(data, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(*percentile(data, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(*percentile(data, 50.0), 25.0);
  // Unsorted input is handled (the function sorts a copy).
  const double unsorted[] = {40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(*percentile(unsorted, 50.0), 25.0);
}

TEST(TimeSeries, AddAndSummarize) {
  TimeSeries ts;
  ts.label = "test";
  ts.add(0.0, 1.0);
  ts.add(1.0, 3.0);
  ts.add(2.0, 5.0);
  EXPECT_EQ(ts.size(), 3U);
  RunningStats s;
  for (double v : ts.y) s.add(v);
  EXPECT_EQ(s.count(), 3U);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

}  // namespace
}  // namespace eclb::common
