#include "obs/metrics.h"

#include <cstdio>

#include "common/assert.h"

namespace eclb::obs {

namespace {

/// Shortest round-trippable decimal rendering of a double.
std::string json_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void add_cas(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void Gauge::add(double delta) { add_cas(value_, delta); }

HistogramMetric::HistogramMetric(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      bins_(bins) {
  ECLB_ASSERT(bins > 0, "HistogramMetric: need at least one bin");
  ECLB_ASSERT(lo < hi, "HistogramMetric: lo must be < hi");
}

void HistogramMetric::observe(double x) {
  count_.fetch_add(1, std::memory_order_relaxed);
  add_cas(sum_, x);
  if (!(x >= lo_)) {  // negated so NaN counts as underflow
    underflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (x >= hi_) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto bin = static_cast<std::size_t>((x - lo_) / width_);
  if (bin >= bins_.size()) bin = bins_.size() - 1;  // float edge rounding
  bins_[bin].fetch_add(1, std::memory_order_relaxed);
}

double HistogramMetric::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

namespace {

/// Finds or creates the instrument under `name` in `map` (caller holds the
/// registry mutex).
template <class T, class Make>
T& find_or_create(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
                  std::string_view name, Make make) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), make()).first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  return find_or_create(counters_, name,
                        [] { return std::make_unique<Counter>(); });
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  return find_or_create(gauges_, name, [] { return std::make_unique<Gauge>(); });
}

HistogramMetric& MetricsRegistry::histogram(std::string_view name, double lo,
                                            double hi, std::size_t bins) {
  std::lock_guard lock(mu_);
  return find_or_create(histograms_, name, [&] {
    return std::make_unique<HistogramMetric>(lo, hi, bins);
  });
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const HistogramMetric* MetricsRegistry::find_histogram(
    std::string_view name) const {
  std::lock_guard lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  ECLB_ASSERT(&other != this, "MetricsRegistry::merge: self-merge");
  std::scoped_lock lock(mu_, other.mu_);
  for (const auto& [name, c] : other.counters_) {
    find_or_create(counters_, name, [] {
      return std::make_unique<Counter>();
    }).inc(c->value());
  }
  for (const auto& [name, g] : other.gauges_) {
    find_or_create(gauges_, name, [] {
      return std::make_unique<Gauge>();
    }).add(g->value());
  }
  for (const auto& [name, h] : other.histograms_) {
    HistogramMetric& into = find_or_create(histograms_, name, [&] {
      return std::make_unique<HistogramMetric>(h->lo(), h->hi(),
                                               h->bin_count());
    });
    ECLB_ASSERT(into.lo() == h->lo() && into.hi() == h->hi() &&
                    into.bin_count() == h->bin_count(),
                "MetricsRegistry::merge: histogram shape mismatch");
    for (std::size_t i = 0; i < h->bin_count(); ++i) {
      into.bins_[i].fetch_add(h->bin(i), std::memory_order_relaxed);
    }
    into.underflow_.fetch_add(h->underflow(), std::memory_order_relaxed);
    into.overflow_.fetch_add(h->overflow(), std::memory_order_relaxed);
    into.count_.fetch_add(h->count(), std::memory_order_relaxed);
    add_cas(into.sum_, h->sum());
  }
}

void MetricsRegistry::write_json(std::ostream& out) const {
  std::lock_guard lock(mu_);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "" : ",") << "\n    \"" << name << "\": " << c->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "" : ",") << "\n    \"" << name
        << "\": " << json_double(g->value());
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out << (first ? "" : ",") << "\n    \"" << name << "\": {\"lo\": "
        << json_double(h->lo()) << ", \"hi\": " << json_double(h->hi())
        << ", \"count\": " << h->count() << ", \"sum\": "
        << json_double(h->sum()) << ", \"underflow\": " << h->underflow()
        << ", \"overflow\": " << h->overflow() << ", \"bins\": [";
    for (std::size_t i = 0; i < h->bin_count(); ++i) {
      out << (i == 0 ? "" : ", ") << h->bin(i);
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

}  // namespace eclb::obs
