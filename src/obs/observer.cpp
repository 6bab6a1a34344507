#include "obs/observer.h"

#include <filesystem>

namespace eclb::obs {

ClusterProbe::ClusterProbe(std::unique_ptr<TraceWriter> trace,
                           MetricsRegistry* metrics, Profiler* profiler)
    : trace_(std::move(trace)), metrics_(metrics), profiler_(profiler) {
  if (metrics_ != nullptr) {
    instruments_ = ProtocolInstruments::resolve(*metrics_);
  }
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
  instruments_.record(event);
}

void ClusterProbe::on_interval_end(const cluster::IntervalReport& report,
                                   common::Seconds now) {
  if (trace_ != nullptr) trace_->interval_end(report, now.value);
  instruments_.record_interval(report);
}

void ClusterProbe::on_phase(std::string_view phase, double wall_seconds) {
  if (profiler_ != nullptr) profiler_->record(phase, wall_seconds);
}

}  // namespace eclb::obs
