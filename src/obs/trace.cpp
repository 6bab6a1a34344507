#include "obs/trace.h"

#include <cstdlib>
#include <fstream>

namespace eclb::obs {

namespace {

constexpr std::size_t kFlushThreshold = 64 * 1024;

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_size(std::string& out, std::size_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%zu", v);
  out += buf;
}

/// `dir/<prefix><index>_seed<seed>.jsonl`.
std::string run_file_path(const std::string& dir, const char* prefix,
                          std::size_t index, std::uint64_t seed) {
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += prefix;
  append_size(path, index);
  path += "_seed";
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(seed));
  path += buf;
  path += ".jsonl";
  return path;
}

}  // namespace

TraceWriter::TraceWriter(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "wb");
  buf_.reserve(kFlushThreshold + 512);
}

TraceWriter::~TraceWriter() {
  flush();
  if (file_ != nullptr) std::fclose(file_);
}

void TraceWriter::flush() {
  if (file_ == nullptr || buf_.empty()) return;
  std::fwrite(buf_.data(), 1, buf_.size(), file_);
  std::fflush(file_);
  buf_.clear();
}

void TraceWriter::maybe_flush() {
  if (buf_.size() >= kFlushThreshold) flush();
}

void TraceWriter::interval_begin(std::size_t interval, double sim_seconds) {
  if (file_ == nullptr) return;
  buf_ += "{\"type\":\"interval_begin\",\"interval\":";
  append_size(buf_, interval);
  buf_ += ",\"t\":";
  append_double(buf_, sim_seconds);
  buf_ += "}\n";
  maybe_flush();
}

void TraceWriter::event(const cluster::ProtocolEvent& event) {
  if (file_ == nullptr) return;
  buf_ += "{\"type\":\"event\",\"interval\":";
  append_size(buf_, event.interval);
  buf_ += ",\"kind\":\"";
  buf_ += cluster::to_string(event.kind);
  buf_ += '"';
  if (event.server.valid()) {
    buf_ += ",\"server\":";
    append_size(buf_, event.server.index());
  }
  switch (event.kind) {
    case cluster::ProtocolEvent::Kind::kDecision:
      buf_ += ",\"decision\":\"";
      buf_ += cluster::to_string(event.decision);
      buf_ += '"';
      break;
    case cluster::ProtocolEvent::Kind::kMigration:
      buf_ += ",\"cause\":\"";
      buf_ += cluster::to_string(event.cause);
      buf_ += '"';
      break;
    case cluster::ProtocolEvent::Kind::kSlaViolation:
      buf_ += ",\"unserved\":";
      append_double(buf_, event.unserved);
      break;
    case cluster::ProtocolEvent::Kind::kMessageDropped:
    case cluster::ProtocolEvent::Kind::kMessageRetried:
    case cluster::ProtocolEvent::Kind::kCommandFenced:
      buf_ += ",\"message\":\"";
      buf_ += cluster::to_string(event.message);
      buf_ += '"';
      break;
    case cluster::ProtocolEvent::Kind::kCapacityDerate:
      buf_ += ",\"capacity\":";
      append_double(buf_, event.value);
      break;
    case cluster::ProtocolEvent::Kind::kPartitionStart:
      buf_ += ",\"sides\":";
      append_double(buf_, event.value);
      break;
    case cluster::ProtocolEvent::Kind::kReconcile:
      buf_ += ",\"convergence\":";
      append_double(buf_, event.value);
      break;
    case cluster::ProtocolEvent::Kind::kRequestBatch:
      buf_ += ",\"arrived\":";
      append_size(buf_, event.requests_arrived);
      buf_ += ",\"completed\":";
      append_size(buf_, event.requests_completed);
      buf_ += ",\"violated\":";
      append_size(buf_, event.requests_violated);
      buf_ += ",\"dropped\":";
      append_size(buf_, event.requests_dropped);
      // Shed/failed follow the fault-counter rule: omitted when zero, so a
      // batch row without admission or crashes keeps its old byte layout.
      if (event.requests_shed != 0) {
        buf_ += ",\"shed\":";
        append_size(buf_, event.requests_shed);
      }
      if (event.requests_failed != 0) {
        buf_ += ",\"req_failed\":";
        append_size(buf_, event.requests_failed);
      }
      buf_ += ",\"backlog\":";
      append_double(buf_, event.value);
      break;
    default:
      break;
  }
  buf_ += "}\n";
  maybe_flush();
}

void TraceWriter::interval_end(const cluster::IntervalReport& report,
                               double sim_seconds) {
  if (file_ == nullptr) return;
  buf_ += "{\"type\":\"interval_end\",\"interval\":";
  append_size(buf_, report.interval_index);
  buf_ += ",\"t\":";
  append_double(buf_, sim_seconds);
  const auto field = [this](const char* name, std::size_t v) {
    buf_ += ",\"";
    buf_ += name;
    buf_ += "\":";
    append_size(buf_, v);
  };
  field("local", report.local_decisions);
  field("in_cluster", report.in_cluster_decisions);
  field("migrations", report.migrations);
  field("horizontal_starts", report.horizontal_starts);
  field("offloads", report.offloaded_requests);
  field("drains", report.drains);
  field("sleeps", report.sleeps);
  field("wakes", report.wakes);
  field("sla_violations", report.sla_violations);
  field("qos_violations", report.qos_violations);
  // Fault counters only appear when nonzero: a fault-free trace stays
  // byte-identical to one produced before the fault layer existed.
  if (report.crashes != 0) field("crashes", report.crashes);
  if (report.recoveries != 0) field("recoveries", report.recoveries);
  if (report.failovers != 0) field("failovers", report.failovers);
  if (report.dropped_messages != 0) field("dropped", report.dropped_messages);
  if (report.retried_messages != 0) field("retried", report.retried_messages);
  if (report.orphans_replaced != 0) {
    field("orphans_replaced", report.orphans_replaced);
  }
  if (report.failed_migrations != 0) {
    field("failed_migrations", report.failed_migrations);
  }
  if (report.failed_servers != 0) field("failed", report.failed_servers);
  if (report.partitions != 0) field("partitions", report.partitions);
  if (report.heals != 0) field("heals", report.heals);
  if (report.fenced_commands != 0) field("fenced", report.fenced_commands);
  if (report.shadow_starts != 0) field("shadow_starts", report.shadow_starts);
  if (report.duplicates_resolved != 0) {
    field("duplicates_resolved", report.duplicates_resolved);
  }
  // Request-engine counters follow the fault-counter rule: omitted when
  // zero, so an engine-off trace is byte-identical to a pre-engine one.
  if (report.requests_arrived != 0) {
    field("requests_arrived", report.requests_arrived);
  }
  if (report.requests_completed != 0) {
    field("requests_completed", report.requests_completed);
  }
  if (report.request_sla_violations != 0) {
    field("requests_violated", report.request_sla_violations);
  }
  if (report.requests_dropped != 0) {
    field("requests_dropped", report.requests_dropped);
  }
  if (report.requests_shed != 0) {
    field("requests_shed", report.requests_shed);
  }
  if (report.requests_failed_by_fault != 0) {
    field("requests_failed", report.requests_failed_by_fault);
  }
  if (report.wake_sleep_flaps != 0) {
    field("wake_sleep_flaps", report.wake_sleep_flaps);
  }
  if (report.request_backlog != 0.0) {
    buf_ += ",\"request_backlog\":";
    append_double(buf_, report.request_backlog);
  }
  buf_ += ",\"unserved\":";
  append_double(buf_, report.unserved_demand);
  field("parked", report.parked_servers);
  field("deep_sleeping", report.deep_sleeping_servers);
  buf_ += ",\"energy_j\":";
  append_double(buf_, report.interval_energy.value);
  buf_ += "}\n";
  maybe_flush();
}

namespace {

/// Value of `"key":` in `line` as raw text; nullopt when absent.  Keys in
/// the trace schema are never substrings of each other once the quotes and
/// colon are included, so plain substring search is exact.
std::optional<std::string_view> raw_value(std::string_view line,
                                          std::string_view key) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern += '"';
  pattern += key;
  pattern += "\":";
  const auto pos = line.find(pattern);
  if (pos == std::string_view::npos) return std::nullopt;
  return line.substr(pos + pattern.size());
}

std::optional<std::string_view> string_value(std::string_view line,
                                             std::string_view key) {
  const auto raw = raw_value(line, key);
  if (!raw.has_value() || raw->empty() || raw->front() != '"') return std::nullopt;
  const auto end = raw->find('"', 1);
  if (end == std::string_view::npos) return std::nullopt;
  return raw->substr(1, end - 1);
}

std::optional<double> number_value(std::string_view line, std::string_view key) {
  const auto raw = raw_value(line, key);
  if (!raw.has_value()) return std::nullopt;
  // strtod needs NUL termination; numbers in the schema are short.
  char buf[40];
  const std::size_t n = std::min(raw->size(), sizeof buf - 1);
  raw->copy(buf, n);
  buf[n] = '\0';
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (end == buf) return std::nullopt;
  return v;
}

std::optional<std::size_t> size_value(std::string_view line,
                                      std::string_view key) {
  const auto v = number_value(line, key);
  if (!v.has_value() || *v < 0.0) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

std::optional<cluster::ProtocolEvent::Kind> parse_kind(std::string_view name) {
  using Kind = cluster::ProtocolEvent::Kind;
  for (const Kind k :
       {Kind::kDecision, Kind::kMigration, Kind::kHorizontalStart,
        Kind::kOffload, Kind::kDrain, Kind::kSleep, Kind::kWake,
        Kind::kSlaViolation, Kind::kQosViolation, Kind::kServerCrash,
        Kind::kServerRecover, Kind::kLeaderFailover, Kind::kMessageDropped,
        Kind::kMessageRetried, Kind::kOrphanReplaced, Kind::kMigrationFailed,
        Kind::kCapacityDerate, Kind::kPartitionStart, Kind::kPartitionHeal,
        Kind::kCommandFenced, Kind::kShadowStart, Kind::kDuplicateResolved,
        Kind::kReconcile, Kind::kRequestBatch, Kind::kWakeSleepFlap}) {
    if (name == cluster::to_string(k)) return k;
  }
  return std::nullopt;
}

std::optional<cluster::MessageKind> parse_message_kind(std::string_view name) {
  for (std::size_t i = 0; i < cluster::kMessageKindCount; ++i) {
    const auto k = static_cast<cluster::MessageKind>(i);
    if (name == cluster::to_string(k)) return k;
  }
  return std::nullopt;
}

std::optional<TraceRecord> parse_event(std::string_view line, TraceRecord rec) {
  rec.type = TraceRecord::Type::kEvent;
  const auto kind_name = string_value(line, "kind");
  if (!kind_name.has_value()) return std::nullopt;
  const auto kind = parse_kind(*kind_name);
  if (!kind.has_value()) return std::nullopt;
  rec.event.kind = *kind;
  rec.event.interval = rec.interval;
  if (const auto server = size_value(line, "server"); server.has_value()) {
    rec.event.server = common::ServerId{*server};
  }
  if (const auto d = string_value(line, "decision"); d.has_value()) {
    if (*d == to_string(cluster::DecisionKind::kLocal)) {
      rec.event.decision = cluster::DecisionKind::kLocal;
    } else if (*d == to_string(cluster::DecisionKind::kInCluster)) {
      rec.event.decision = cluster::DecisionKind::kInCluster;
    } else {
      return std::nullopt;
    }
  }
  if (const auto c = string_value(line, "cause"); c.has_value()) {
    using Cause = cluster::MigrationCause;
    if (*c == to_string(Cause::kShed)) {
      rec.event.cause = Cause::kShed;
    } else if (*c == to_string(Cause::kRebalance)) {
      rec.event.cause = Cause::kRebalance;
    } else if (*c == to_string(Cause::kConsolidation)) {
      rec.event.cause = Cause::kConsolidation;
    } else {
      return std::nullopt;
    }
  }
  if (const auto u = number_value(line, "unserved"); u.has_value()) {
    rec.event.unserved = *u;
  }
  if (const auto m = string_value(line, "message"); m.has_value()) {
    const auto message = parse_message_kind(*m);
    if (!message.has_value()) return std::nullopt;
    rec.event.message = *message;
  }
  if (const auto c = number_value(line, "capacity"); c.has_value()) {
    rec.event.value = *c;
  }
  if (const auto s = number_value(line, "sides"); s.has_value()) {
    rec.event.value = *s;
  }
  if (const auto c = number_value(line, "convergence"); c.has_value()) {
    rec.event.value = *c;
  }
  if (rec.event.kind == cluster::ProtocolEvent::Kind::kRequestBatch) {
    const auto arrived = size_value(line, "arrived");
    const auto completed = size_value(line, "completed");
    const auto violated = size_value(line, "violated");
    const auto dropped = size_value(line, "dropped");
    const auto backlog = number_value(line, "backlog");
    if (!arrived.has_value() || !completed.has_value() ||
        !violated.has_value() || !dropped.has_value() ||
        !backlog.has_value()) {
      return std::nullopt;
    }
    rec.event.requests_arrived = static_cast<std::uint32_t>(*arrived);
    rec.event.requests_completed = static_cast<std::uint32_t>(*completed);
    rec.event.requests_violated = static_cast<std::uint32_t>(*violated);
    rec.event.requests_dropped = static_cast<std::uint32_t>(*dropped);
    if (const auto shed = size_value(line, "shed"); shed.has_value()) {
      rec.event.requests_shed = static_cast<std::uint32_t>(*shed);
    }
    if (const auto failed = size_value(line, "req_failed");
        failed.has_value()) {
      rec.event.requests_failed = static_cast<std::uint32_t>(*failed);
    }
    rec.event.value = *backlog;
  }
  return rec;
}

std::optional<TraceRecord> parse_interval_end(std::string_view line,
                                              TraceRecord rec) {
  rec.type = TraceRecord::Type::kIntervalEnd;
  const auto t = number_value(line, "t");
  if (!t.has_value()) return std::nullopt;
  rec.sim_seconds = *t;
  const auto counter = [&line](std::string_view key, std::size_t& out) {
    const auto v = size_value(line, key);
    if (v.has_value()) out = *v;
    return v.has_value();
  };
  if (!counter("local", rec.local) || !counter("in_cluster", rec.in_cluster) ||
      !counter("migrations", rec.migrations) ||
      !counter("horizontal_starts", rec.horizontal_starts) ||
      !counter("offloads", rec.offloads) || !counter("drains", rec.drains) ||
      !counter("sleeps", rec.sleeps) || !counter("wakes", rec.wakes) ||
      !counter("sla_violations", rec.sla_violations) ||
      !counter("qos_violations", rec.qos_violations) ||
      !counter("parked", rec.parked) ||
      !counter("deep_sleeping", rec.deep_sleeping)) {
    return std::nullopt;
  }
  // Fault counters are optional (the writer omits zeros).
  const auto optional_counter = [&line](std::string_view key, std::size_t& out) {
    const auto v = size_value(line, key);
    if (v.has_value()) out = *v;
  };
  optional_counter("crashes", rec.crashes);
  optional_counter("recoveries", rec.recoveries);
  optional_counter("failovers", rec.failovers);
  optional_counter("dropped", rec.dropped);
  optional_counter("retried", rec.retried);
  optional_counter("orphans_replaced", rec.orphans_replaced);
  optional_counter("failed_migrations", rec.failed_migrations);
  optional_counter("failed", rec.failed);
  optional_counter("partitions", rec.partitions);
  optional_counter("heals", rec.heals);
  optional_counter("fenced", rec.fenced);
  optional_counter("shadow_starts", rec.shadow_starts);
  optional_counter("duplicates_resolved", rec.duplicates_resolved);
  optional_counter("requests_arrived", rec.requests_arrived);
  optional_counter("requests_completed", rec.requests_completed);
  optional_counter("requests_violated", rec.requests_violated);
  optional_counter("requests_dropped", rec.requests_dropped);
  optional_counter("requests_shed", rec.requests_shed);
  optional_counter("requests_failed", rec.requests_failed_by_fault);
  optional_counter("wake_sleep_flaps", rec.wake_sleep_flaps);
  if (const auto b = number_value(line, "request_backlog"); b.has_value()) {
    rec.request_backlog = *b;
  }
  const auto unserved = number_value(line, "unserved");
  const auto energy = number_value(line, "energy_j");
  if (!unserved.has_value() || !energy.has_value()) return std::nullopt;
  rec.unserved = *unserved;
  rec.energy_joules = *energy;
  return rec;
}

}  // namespace

std::optional<TraceRecord> parse_trace_line(std::string_view line) {
  const auto type = string_value(line, "type");
  const auto interval = size_value(line, "interval");
  if (!type.has_value() || !interval.has_value()) return std::nullopt;
  TraceRecord rec;
  rec.interval = *interval;

  if (*type == "interval_begin") {
    rec.type = TraceRecord::Type::kIntervalBegin;
    const auto t = number_value(line, "t");
    if (!t.has_value()) return std::nullopt;
    rec.sim_seconds = *t;
    return rec;
  }
  if (*type == "event") return parse_event(line, rec);
  if (*type == "interval_end") return parse_interval_end(line, rec);
  return std::nullopt;
}

std::optional<std::vector<TraceRecord>> read_trace_file(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return std::nullopt;
  std::vector<TraceRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto rec = parse_trace_line(line);
    if (!rec.has_value()) return std::nullopt;
    records.push_back(*rec);
  }
  return records;
}

std::string trace_file_path(const std::string& dir, std::uint64_t seed,
                            std::size_t replication) {
  return run_file_path(dir, "rep", replication, seed);
}

std::string shard_trace_file_path(const std::string& dir, std::uint64_t seed,
                                  std::size_t shard) {
  return run_file_path(dir, "shard", shard, seed);
}

}  // namespace eclb::obs
