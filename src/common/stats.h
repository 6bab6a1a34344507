// Streaming statistics, histograms and time series.
//
// The paper reports averages and standard deviations of per-interval ratios
// (Table 2), server-count histograms over the five regimes (Figure 2) and
// per-interval time series (Figure 3).  These small accumulators back all of
// those without storing more than necessary.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace eclb::common {

/// Welford online mean / variance accumulator.
class RunningStats {
 public:
  /// Folds one observation into the accumulator.
  void add(double x);

  /// Number of observations so far.
  [[nodiscard]] std::size_t count() const { return n_; }
  /// Arithmetic mean; 0 when empty.
  [[nodiscard]] double mean() const { return n_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 with fewer than two observations.
  [[nodiscard]] double variance() const;
  /// Sample standard deviation.
  [[nodiscard]] double stddev() const;
  /// Smallest observation; NaN when empty.
  [[nodiscard]] double min() const;
  /// Largest observation; NaN when empty.
  [[nodiscard]] double max() const;
  /// Sum of all observations.
  [[nodiscard]] double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double sum_{0.0};
  double min_{0.0};
  double max_{0.0};
};

/// Fixed-bin histogram over [lo, hi).  Out-of-range samples are counted as
/// underflow/overflow instead of being folded into the edge bins (which
/// would silently corrupt the distribution tails).
class Histogram {
 public:
  /// Creates `bins` equal-width bins spanning [lo, hi).  Requires bins > 0
  /// and lo < hi.
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds one sample with unit weight.
  void add(double x) { add(x, 1.0); }
  /// Adds one sample with the given weight.
  void add(double x, double weight);

  /// Number of bins.
  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  /// Weight accumulated in bin `i`.
  [[nodiscard]] double bin_weight(std::size_t i) const { return counts_.at(i); }
  /// Inclusive lower edge of bin `i`.
  [[nodiscard]] double bin_lo(std::size_t i) const;
  /// Exclusive upper edge of bin `i`.
  [[nodiscard]] double bin_hi(std::size_t i) const;
  /// Total weight across the in-range bins.
  [[nodiscard]] double total() const;
  /// Weight of samples below lo (NaN samples land here too).
  [[nodiscard]] double underflow() const { return underflow_; }
  /// Weight of samples at or above hi.
  [[nodiscard]] double overflow() const { return overflow_; }
  /// Total observed weight: in-range bins plus underflow and overflow.
  [[nodiscard]] double total_observed() const {
    return total() + underflow_ + overflow_;
  }

 private:
  double lo_;
  double hi_;
  double underflow_{0.0};
  double overflow_{0.0};
  std::vector<double> counts_;
};

/// Computes the p-th percentile (0 <= p <= 100) by linear interpolation over
/// a copy of the data; returns nullopt for empty input.
[[nodiscard]] std::optional<double> percentile(std::span<const double> data, double p);

/// A labelled sequence of (x, y) points -- one paper figure series.
struct TimeSeries {
  std::string label;          ///< Legend label, e.g. "Ratio".
  std::vector<double> x;      ///< Abscissae (reallocation interval index).
  std::vector<double> y;      ///< Ordinates.

  /// Appends one point.
  void add(double xv, double yv) {
    x.push_back(xv);
    y.push_back(yv);
  }
  /// Number of points.
  [[nodiscard]] std::size_t size() const { return x.size(); }
};

}  // namespace eclb::common
