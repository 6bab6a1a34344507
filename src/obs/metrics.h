// Metrics registry: named counters, gauges and histograms backing the
// observability layer.
//
// Registration (name -> instrument) takes a mutex; the returned references
// stay valid for the registry's lifetime, so hot paths update lock-free
// relaxed atomics without ever touching the map again.  Concurrent runs
// (shards, replications) each write their own registry; the caller merges
// them in a fixed order so float sums never depend on thread scheduling.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace eclb::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Floating-point value: last-written (set) or accumulated (add).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Atomic accumulate (CAS loop; for gauges summed across replications).
  void add(double delta);
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bin distribution over [lo, hi); out-of-range samples are counted
/// as underflow/overflow, never folded into the edge bins.
class HistogramMetric {
 public:
  /// Requires bins > 0 and lo < hi.
  HistogramMetric(double lo, double hi, std::size_t bins);

  void observe(double x);

  [[nodiscard]] std::size_t bin_count() const { return bins_.size(); }
  [[nodiscard]] std::uint64_t bin(std::size_t i) const {
    return bins_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] double bin_lo(std::size_t i) const {
    return lo_ + width_ * static_cast<double>(i);
  }
  [[nodiscard]] double bin_hi(std::size_t i) const {
    return lo_ + width_ * static_cast<double>(i + 1);
  }
  [[nodiscard]] std::uint64_t underflow() const {
    return underflow_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t overflow() const {
    return overflow_.load(std::memory_order_relaxed);
  }
  /// Observations so far (in-range plus underflow/overflow).
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Sum of all observed samples.
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Mean of all observed samples; 0 when empty.
  [[nodiscard]] double mean() const;
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }

 private:
  friend class MetricsRegistry;  // merge() adds whole distributions.

  double lo_;
  double hi_;
  double width_;
  std::vector<std::atomic<std::uint64_t>> bins_;
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Thread-safe name -> instrument registry.  Instruments are created on
/// first use and live as long as the registry; lookups during registration
/// are mutex-guarded, updates through the returned references are not.
class MetricsRegistry {
 public:
  /// The counter registered under `name`, created on first use.
  [[nodiscard]] Counter& counter(std::string_view name);
  /// The gauge registered under `name`, created on first use.
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// The histogram registered under `name`; created with the given shape on
  /// first use (the shape of an existing histogram is kept).
  [[nodiscard]] HistogramMetric& histogram(std::string_view name, double lo,
                                           double hi, std::size_t bins);

  /// Lookup without creation; nullptr when absent.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const HistogramMetric* find_histogram(std::string_view name) const;

  /// Adds every instrument of `other` into this registry, creating the ones
  /// it lacks.  Gauges add as well, so per-shard levels (the request
  /// backlog) sum to the fleet level.  Histograms of one name must share
  /// their shape.
  void merge(const MetricsRegistry& other);

  /// Serializes every instrument as one JSON object; names are sorted, so
  /// the output is deterministic for a given set of values.
  void write_json(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>> histograms_;
};

}  // namespace eclb::obs
