#include "obs/observer.h"

#include <filesystem>

namespace eclb::obs {

ClusterProbe::ClusterProbe(std::unique_ptr<TraceWriter> trace,
                           MetricsRegistry* metrics, Profiler* profiler)
    : trace_(std::move(trace)), profiler_(profiler) {
  if (metrics == nullptr) return;
  for (std::size_t i = 0; i < kReportCounters.size(); ++i) {
    const std::string_view name = kReportCounters[i].metric;
    if (!name.empty()) counters_[i] = &metrics->counter(name);
  }
  intervals_ = &metrics->counter(kIntervalsMetric);
  energy_kwh_ = &metrics->gauge(kEnergyMetric);
  unserved_ = &metrics->gauge(kUnservedMetric);
  backlog_ = &metrics->gauge(kBacklogMetric);
  decision_ratio_ = &metrics->histogram(kDecisionRatioMetric, 0.0, 8.0, 32);
}

namespace {

/// A probe writing its trace to `trace_path` when `config` asks for traces;
/// nullptr when `config` is inactive.  Creates the trace directory.
std::unique_ptr<ClusterProbe> make_probe(const ObsConfig& config,
                                         const std::string& trace_path) {
  if (!config.active()) return nullptr;
  std::unique_ptr<TraceWriter> trace;
  if (!config.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.trace_dir, ec);
    trace = std::make_unique<TraceWriter>(trace_path);
  }
  return std::make_unique<ClusterProbe>(std::move(trace), config.metrics,
                                        config.profiler);
}

}  // namespace

std::unique_ptr<ClusterProbe> ClusterProbe::make(const ObsConfig& config,
                                                 std::uint64_t seed,
                                                 std::size_t replication) {
  return make_probe(config,
                    trace_file_path(config.trace_dir, seed, replication));
}

std::unique_ptr<ClusterProbe> ClusterProbe::make_shard(const ObsConfig& config,
                                                       std::uint64_t seed,
                                                       std::size_t shard) {
  return make_probe(config,
                    shard_trace_file_path(config.trace_dir, seed, shard));
}

void ClusterProbe::on_interval_begin(std::size_t interval, common::Seconds now) {
  if (trace_ != nullptr) trace_->interval_begin(interval, now.value);
}

void ClusterProbe::on_event(const cluster::ProtocolEvent& event) {
  if (trace_ != nullptr) trace_->event(event);
}

void ClusterProbe::on_interval_end(const cluster::IntervalReport& report,
                                   common::Seconds now) {
  if (trace_ != nullptr) trace_->interval_end(report, now.value);
  if (intervals_ == nullptr) return;
  for (std::size_t i = 0; i < kReportCounters.size(); ++i) {
    if (counters_[i] != nullptr) {
      counters_[i]->inc(report.*kReportCounters[i].field);
    }
  }
  intervals_->inc();
  energy_kwh_->add(report.interval_energy.kwh());
  unserved_->add(report.unserved_demand);
  // The backlog is a level, so the gauge is overwritten, not accumulated.
  backlog_->set(report.request_backlog);
  decision_ratio_->observe(report.decision_ratio());
}

void ClusterProbe::on_phase(std::string_view phase, double wall_seconds) {
  if (profiler_ != nullptr) profiler_->record(phase, wall_seconds);
}

}  // namespace eclb::obs
