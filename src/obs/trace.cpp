#include "obs/trace.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "common/spec_reader.h"
#include "obs/counters.h"

namespace eclb::obs {

namespace {

constexpr std::size_t kFlushThreshold = 64 * 1024;

// The interval_end keys after the kReportCounters rows.
constexpr std::string_view kRequestBacklogKey = "request_backlog";
constexpr std::string_view kUnservedKey = "unserved";
constexpr std::string_view kParkedKey = "parked";
constexpr std::string_view kDeepSleepingKey = "deep_sleeping";
constexpr std::string_view kEnergyKey = "energy_j";

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
  const auto key = [this](std::string_view name) {
    buf_ += ",\"";
    buf_ += name;
    buf_ += "\":";
  };
  for (const ReportCounter& row : kReportCounters) {
    const std::size_t v = report.*row.field;
    if (row.trace_key.empty() || (row.omit_zero && v == 0)) continue;
    key(row.trace_key);
    append_size(buf_, v);
  }
  if (report.request_backlog != 0.0) {
    key(kRequestBacklogKey);
    append_double(buf_, report.request_backlog);
  }
  key(kUnservedKey);
  append_double(buf_, report.unserved_demand);
  key(kParkedKey);
  append_size(buf_, report.parked_servers);
  key(kDeepSleepingKey);
  append_size(buf_, report.deep_sleeping_servers);
  key(kEnergyKey);
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
  // Only a finite, non-negative whole number below 2^64 is a count: casting
  // anything else is undefined (1e300) or silently wrong (nan, 2.7).
  constexpr double kLimit = 0x1p64;
  static_assert(std::numeric_limits<std::size_t>::digits == 64);
  if (!v.has_value() || !(*v >= 0.0 && *v < kLimit) || std::trunc(*v) != *v) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(*v);
}

/// Reads the optional name field `key` into `out`; false when the field is
/// present but names none of the first `count` enumerators of `E`.
template <class E>
bool name_field(std::string_view line, std::string_view key, std::size_t count,
                E& out) {
  const auto name = string_value(line, key);
  return !name.has_value() || common::read_name(*name, count, &out);
}

constexpr std::size_t kDecisionKindCount =
    static_cast<std::size_t>(cluster::DecisionKind::kInCluster) + 1;
constexpr std::size_t kMigrationCauseCount =
    static_cast<std::size_t>(cluster::MigrationCause::kConsolidation) + 1;

std::optional<TraceRecord> parse_event(std::string_view line, TraceRecord rec) {
  rec.type = TraceRecord::Type::kEvent;
  const auto kind_name = string_value(line, "kind");
  if (!kind_name.has_value()) return std::nullopt;
  if (!common::read_name(*kind_name, cluster::kProtocolEventKindCount,
                         &rec.event.kind)) {
    return std::nullopt;
  }
  rec.event.interval = rec.interval;
  if (const auto server = size_value(line, "server"); server.has_value()) {
    rec.event.server = common::ServerId{*server};
  }
  if (!name_field(line, "decision", kDecisionKindCount, rec.event.decision) ||
      !name_field(line, "cause", kMigrationCauseCount, rec.event.cause) ||
      !name_field(line, "message", cluster::kMessageKindCount,
                  rec.event.message)) {
    return std::nullopt;
  }
  if (const auto u = number_value(line, "unserved"); u.has_value()) {
    rec.event.unserved = *u;
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
    // Batch counts are 32-bit: a wider value is malformed, not truncated.
    const auto count = [&line](std::string_view key, std::uint32_t& out,
                               bool required) {
      const auto v = size_value(line, key);
      if (!v.has_value()) return !required;
      if (*v > std::numeric_limits<std::uint32_t>::max()) return false;
      out = static_cast<std::uint32_t>(*v);
      return true;
    };
    cluster::ProtocolEvent& e = rec.event;
    const auto backlog = number_value(line, "backlog");
    if (!count("arrived", e.requests_arrived, true) ||
        !count("completed", e.requests_completed, true) ||
        !count("violated", e.requests_violated, true) ||
        !count("dropped", e.requests_dropped, true) ||
        !count("shed", e.requests_shed, false) ||
        !count("req_failed", e.requests_failed, false) ||
        !backlog.has_value()) {
      return std::nullopt;
    }
    rec.event.value = *backlog;
  }
  return rec;
}

std::optional<TraceRecord> parse_interval_end(std::string_view line,
                                              TraceRecord rec) {
  rec.type = TraceRecord::Type::kIntervalEnd;
  cluster::IntervalReport& report = rec.report;
  report.interval_index = rec.interval;
  const auto t = number_value(line, "t");
  if (!t.has_value()) return std::nullopt;
  rec.sim_seconds = *t;
  // Rows the writer omits at zero may be absent; a present key must hold a
  // count.
  for (const ReportCounter& row : kReportCounters) {
    if (row.trace_key.empty()) continue;
    const auto v = size_value(line, row.trace_key);
    if (v.has_value()) {
      report.*row.field = *v;
    } else if (!row.omit_zero || raw_value(line, row.trace_key).has_value()) {
      return std::nullopt;
    }
  }
  if (const auto b = number_value(line, kRequestBacklogKey); b.has_value()) {
    report.request_backlog = *b;
  }
  const auto unserved = number_value(line, kUnservedKey);
  const auto parked = size_value(line, kParkedKey);
  const auto deep = size_value(line, kDeepSleepingKey);
  const auto energy = number_value(line, kEnergyKey);
  if (!unserved.has_value() || !parked.has_value() || !deep.has_value() ||
      !energy.has_value()) {
    return std::nullopt;
  }
  report.unserved_demand = *unserved;
  report.parked_servers = *parked;
  report.deep_sleeping_servers = *deep;
  report.interval_energy = common::Joules{*energy};
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
