// Fixed-bucket log-scale sojourn-time histograms.
//
// SLA tails (p99 / p999) span microseconds to hours; a linear histogram
// (common/stats.h) would need millions of buckets or give up tail
// resolution.  This one uses a fixed geometric grid -- 16 buckets per decade
// over [100 us, 10 ks), 128 buckets total -- so recording is O(1), memory is
// constant, merging across streams / shards is element-wise addition, and
// two runs that record the same sojourn sequence produce bit-identical
// bucket counts (the determinism contract x13 checks via digest()).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace eclb::workload::engine {

/// Histogram of per-request sojourn times (seconds).
class LatencyHistogram {
 public:
  /// Lower edge of bucket 0.
  static constexpr double kLoSeconds = 1e-4;
  /// Upper edge of the last bucket.
  static constexpr double kHiSeconds = 1e4;
  static constexpr std::size_t kBucketsPerDecade = 16;
  static constexpr std::size_t kDecades = 8;  ///< log10(kHi / kLo).
  static constexpr std::size_t kBucketCount = kBucketsPerDecade * kDecades;

  /// Records one sojourn.  Values below kLoSeconds count as underflow,
  /// at/above kHiSeconds as overflow; both still contribute to count() and
  /// quantiles (pinned to the range ends).  Any other value lands in bucket
  /// floor(16 log10(seconds / kLoSeconds)), found by a table lookup on its
  /// exponent and top mantissa bits; only values within 1e-12 relative of a
  /// bucket edge evaluate the logarithm.
  void record(double seconds);

  /// Total recorded samples (including under/overflow).
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i];
  }

  /// Lower edge of bucket `i` in seconds.
  [[nodiscard]] static double bucket_lower(std::size_t i);

  /// The q-quantile (q in [0, 1]) with geometric interpolation inside the
  /// containing bucket; 0 when empty.  p50 = quantile(0.5), p99 =
  /// quantile(0.99), p999 = quantile(0.999).
  [[nodiscard]] double quantile(double q) const;

  /// Element-wise accumulation (shard / stream merge).
  void merge(const LatencyHistogram& other);

  /// FNV-1a digest over every bucket count -- equal iff the recorded
  /// distributions are bit-identical.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t underflow_{0};
  std::uint64_t overflow_{0};
  std::uint64_t count_{0};
};

}  // namespace eclb::workload::engine
