#include "workload/engine/latency.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace eclb::workload::engine {

namespace {

/// A value within this relative distance of a bucket edge is binned by the
/// log10 formula itself.  The formula's rounding moves its switch points by
/// a few ulps (~1e-15) from the stored edges; the margin is ~4500 ulps.
constexpr double kEdgeMargin = 1e-12;

/// One slot of the binning table: every double with one binary exponent and
/// one value of its top 4 mantissa bits, a range at most 6.25% wide.  A
/// bucket spans 15.5% (10^(1/16)), so a slot holds at most one bucket
/// edge.  `below` is the bucket of the slot's first value, `lo` its lower
/// edge and `hi` its upper edge; a value in the slot lands in
/// `below + (x >= hi)`.
struct Slot {
  std::uint32_t below;
  double lo;
  double hi;
};

/// Slots cover exponents 2^-14 .. 2^13, which contain [kLoSeconds,
/// kHiSeconds); the index is the top 16 bits of a positive double (11
/// exponent bits, 4 mantissa bits) minus those of 2^-14.
constexpr int kMinExponent = -14;
constexpr int kExponents = 28;
constexpr std::size_t kSlots = kExponents * 16;
constexpr std::uint64_t kFirstSlotBits = std::uint64_t{1023 + kMinExponent}
                                         << 4;

std::array<Slot, kSlots> build_slots() {
  constexpr std::size_t kEdges = LatencyHistogram::kBucketCount + 1;
  std::array<double, kEdges> edge{};
  for (std::size_t k = 0; k < kEdges; ++k) {
    edge[k] = LatencyHistogram::bucket_lower(k);
  }
  std::array<Slot, kSlots> slots{};
  for (std::size_t i = 0; i < kSlots; ++i) {
    const double start = std::ldexp(
        1.0 + static_cast<double>(i % 16) / 16.0,
        kMinExponent + static_cast<int>(i / 16));
    // The last edge at or below the slot's start, clamped to a real bucket
    // (slots wholly outside [kLo, kHi) are never looked up).
    std::size_t below = 0;
    while (below + 1 < LatencyHistogram::kBucketCount &&
           edge[below + 1] <= start) {
      ++below;
    }
    slots[i] = Slot{static_cast<std::uint32_t>(below), edge[below],
                    edge[below + 1]};
  }
  return slots;
}

const std::array<Slot, kSlots> kSlotTable = build_slots();

bool near(double x, double edge) {
  return std::abs(x - edge) <= x * kEdgeMargin;
}

/// The bucket's defining formula, for x in [kLoSeconds, kHiSeconds).
std::size_t bucket_by_log10(double x) {
  using H = LatencyHistogram;
  const double pos = std::log10(x / H::kLoSeconds) *
                     static_cast<double>(H::kBucketsPerDecade);
  return static_cast<std::size_t>(
      std::clamp(pos, 0.0, static_cast<double>(H::kBucketCount - 1)));
}

}  // namespace

void LatencyHistogram::record(double seconds) {
  ++count_;
  if (!(seconds >= kLoSeconds)) {  // negatives and NaN land in underflow
    ++underflow_;
    return;
  }
  if (seconds >= kHiSeconds) {
    ++overflow_;
    return;
  }
  const Slot& slot =
      kSlotTable[(std::bit_cast<std::uint64_t>(seconds) >> 48) -
                 kFirstSlotBits];
  const std::size_t idx = near(seconds, slot.lo) || near(seconds, slot.hi)
                              ? bucket_by_log10(seconds)
                              : slot.below + (seconds >= slot.hi ? 1 : 0);
  ++buckets_[idx];
}

double LatencyHistogram::bucket_lower(std::size_t i) {
  return kLoSeconds *
         std::pow(10.0, static_cast<double>(i) /
                            static_cast<double>(kBucketsPerDecade));
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the wanted sample, 1-based; walk the cumulative counts.
  const auto rank = static_cast<std::uint64_t>(std::max(
      1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = underflow_;
  if (rank <= seen) return kLoSeconds;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    if (buckets_[i] == 0) continue;
    if (rank <= seen + buckets_[i]) {
      // Geometric interpolation between the bucket edges: the grid is
      // logarithmic, so the midpoint in log space is the honest estimate.
      const double lo = bucket_lower(i);
      const double hi = bucket_lower(i + 1);
      const double frac = (static_cast<double>(rank - seen) - 0.5) /
                          static_cast<double>(buckets_[i]);
      return lo * std::pow(hi / lo, std::clamp(frac, 0.0, 1.0));
    }
    seen += buckets_[i];
  }
  return kHiSeconds;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  count_ += other.count_;
}

std::uint64_t LatencyHistogram::digest() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis.
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  mix(underflow_);
  mix(overflow_);
  mix(count_);
  for (const std::uint64_t b : buckets_) mix(b);
  return h;
}

}  // namespace eclb::workload::engine
