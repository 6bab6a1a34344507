#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.h"

namespace eclb::common {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const {
  return std::sqrt(variance());
}

double RunningStats::min() const {
  return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}

double RunningStats::max() const {
  return n_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0.0) {
  ECLB_ASSERT(bins > 0, "Histogram: need at least one bin");
  ECLB_ASSERT(lo < hi, "Histogram: lo must be < hi");
}

void Histogram::add(double x, double weight) {
  if (!(x >= lo_)) {  // negated so NaN samples also count as underflow
    underflow_ += weight;
    return;
  }
  if (x >= hi_) {
    overflow_ += weight;
    return;
  }
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<std::size_t>((x - lo_) / width);
  if (bin >= counts_.size()) bin = counts_.size() - 1;  // float edge rounding
  counts_[bin] += weight;
}

double Histogram::bin_lo(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double Histogram::bin_hi(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i + 1);
}

double Histogram::total() const {
  double t = 0.0;
  for (double c : counts_) t += c;
  return t;
}

std::optional<double> percentile(std::span<const double> data, double p) {
  if (data.empty()) return std::nullopt;
  ECLB_ASSERT(p >= 0.0 && p <= 100.0, "percentile: p must be in [0,100]");
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace eclb::common
