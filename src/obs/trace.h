// JSONL protocol tracing: one file per replication, one JSON object per
// line, buffered writes.
//
// Schema (stable; also documented in DESIGN.md "Observability"):
//   {"type":"interval_begin","interval":I,"t":SIM_SECONDS}
//   {"type":"event","interval":I,"kind":KIND[,"server":S]
//        [,"decision":"local"|"in-cluster"]          kind == "decision"
//        [,"cause":"shed"|"rebalance"|"consolidation"] kind == "migration"
//        [,"unserved":U]                             kind == "sla_violation"
//        [,"message":MSG_KIND]       kind == "message_dropped"/"message_retried"
//                                            /"command_fenced"
//        [,"capacity":C]                             kind == "capacity_derate"
//        [,"sides":N]                                kind == "partition_start"
//        [,"convergence":S]                          kind == "reconcile"
//        [,"arrived":N,"completed":N,"violated":N,"dropped":N
//         [,"shed":N][,"req_failed":N],"backlog":W]}  kind == "request_batch"
//   {"type":"interval_end","interval":I,"t":SIM_SECONDS,COUNTERS,
//    ["request_backlog":W,]"unserved":U,"parked":N,"deep_sleeping":N,
//    "energy_j":E}
// COUNTERS are the kReportCounters rows with a trace key (obs/counters.h),
// each as "key":N in table order: the ten protocol counters (local ...
// qos_violations) always, then the fault counters (crashes ...
// duplicates_resolved) and the request-engine counters (requests_arrived ...
// wake_sleep_flaps) only when nonzero.  request_backlog is likewise omitted
// when zero, and so are a request batch's shed and req_failed.
// KIND is cluster::to_string(ProtocolEvent::Kind); "server" is omitted when
// the event has no associated server.  The per-interval event stream and the
// interval_end summary are redundant by construction, which is what lets a
// consumer cross-check a trace against the IntervalReport CSV.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/recorder.h"

namespace eclb::obs {

/// Buffered JSONL trace emitter.  Not thread-safe: one writer per
/// replication (each replication owns its file).
class TraceWriter {
 public:
  /// Opens `path` for writing; ok() reports failure.
  explicit TraceWriter(std::string path);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void interval_begin(std::size_t interval, double sim_seconds);
  void event(const cluster::ProtocolEvent& event);
  void interval_end(const cluster::IntervalReport& report, double sim_seconds);

  /// Drains the in-memory buffer to the file (also done on destruction).
  void flush();

  [[nodiscard]] bool ok() const { return file_ != nullptr; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  void maybe_flush();

  std::string path_;
  std::FILE* file_{nullptr};
  std::string buf_;
};

/// One parsed trace line.
struct TraceRecord {
  enum class Type : std::uint8_t {
    kIntervalBegin = 0,
    kEvent = 1,
    kIntervalEnd = 2,
  };

  Type type{Type::kEvent};
  std::size_t interval{0};
  double sim_seconds{0.0};          ///< interval_begin / interval_end only.
  cluster::ProtocolEvent event{};   ///< kEvent payload.

  /// kIntervalEnd payload: the kReportCounters rows with a trace key,
  /// `request_backlog`, `unserved_demand`, `parked_servers`,
  /// `deep_sleeping_servers` and `interval_energy`.  Fields the trace does
  /// not carry (the migration causes, `regimes`, `sleeping_servers`) stay
  /// zero.
  cluster::IntervalReport report{};
};

/// Parses one line of TraceWriter output; nullopt on malformed input.
[[nodiscard]] std::optional<TraceRecord> parse_trace_line(std::string_view line);

/// Reads a whole trace file; nullopt when the file cannot be opened or any
/// line fails to parse.
[[nodiscard]] std::optional<std::vector<TraceRecord>> read_trace_file(
    const std::string& path);

/// Canonical per-replication trace file name:
/// "<dir>/rep<replication>_seed<seed>.jsonl".
[[nodiscard]] std::string trace_file_path(const std::string& dir,
                                          std::uint64_t seed,
                                          std::size_t replication);

/// Canonical per-shard trace file name for fabric runs:
/// "<dir>/shard<shard>_seed<seed>.jsonl".  `seed` is the fabric's template
/// seed, so one fabric run's shard files group under one seed.
[[nodiscard]] std::string shard_trace_file_path(const std::string& dir,
                                                std::uint64_t seed,
                                                std::size_t shard);

}  // namespace eclb::obs
