#include "workload/engine/spec.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

namespace eclb::workload::engine {

namespace {

constexpr std::string_view kKindGrammar =
    "poisson:rate=R, diurnal:rate=R[,amp=A,period=S], "
    "flash:rate=R[,burst=M,on=S,off=S], trace:file=PATH[,scale=F]";

constexpr std::string_view kStreamOptionGrammar =
    "service=exp|lognormal|pareto, mean=S, sigma=F, alpha=F, sla=SECS";

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

/// Shortest accepted flash on/off mean, in seconds; the out-of-range
/// diagnostic quotes it as "0.001".
constexpr double kMinFlashMeanSeconds = 1e-3;

constexpr std::string_view kParamGrammar =
    "seed=N, util=F, sla=SECS, admit=none|tail-drop|deadline-shed, cap=N, "
    "budget=SECS, drain=N";

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

std::string at_offset(std::size_t offset) {
  return " at offset " + std::to_string(offset);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

bool parse_double(std::string_view s, double* out) {
  if (s.empty()) return false;
  const std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool parse_u64(std::string_view s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return false;
  *out = v;
  return true;
}

/// Splits `args` into comma-separated `key=value` pairs.  `offset` is the
/// item's byte offset in the full spec (for diagnostics).
bool parse_args(std::string_view args, std::string_view item,
                std::size_t offset,
                std::vector<std::pair<std::string_view, std::string_view>>* out,
                std::string* error) {
  while (!args.empty()) {
    const std::size_t comma = args.find(',');
    const std::string_view part = trim(args.substr(0, comma));
    args = comma == std::string_view::npos ? std::string_view{}
                                           : args.substr(comma + 1);
    const std::size_t eq = part.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      set_error(error, "requests: expected key=value in '" + std::string(item) +
                           "'" + at_offset(offset));
      return false;
    }
    out->emplace_back(trim(part.substr(0, eq)), trim(part.substr(eq + 1)));
  }
  return true;
}

bool parse_stream_kind(std::string_view name, StreamKind* out) {
  if (name == "poisson") {
    *out = StreamKind::kPoisson;
  } else if (name == "diurnal") {
    *out = StreamKind::kDiurnal;
  } else if (name == "flash") {
    *out = StreamKind::kFlash;
  } else if (name == "trace") {
    *out = StreamKind::kTrace;
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::string_view to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kNone:
      return "none";
    case AdmissionPolicy::kTailDrop:
      return "tail-drop";
    case AdmissionPolicy::kDeadlineShed:
      return "deadline-shed";
  }
  return "none";
}

bool parse_admission_policy(std::string_view name, AdmissionPolicy* out) {
  if (name == "none") {
    *out = AdmissionPolicy::kNone;
  } else if (name == "tail-drop") {
    *out = AdmissionPolicy::kTailDrop;
  } else if (name == "deadline-shed") {
    *out = AdmissionPolicy::kDeadlineShed;
  } else {
    return false;
  }
  return true;
}

std::optional<RequestWorkloadConfig> RequestWorkloadConfig::parse(
    std::string_view spec, std::string* error) {
  RequestWorkloadConfig config;
  std::vector<bool> has_own_sla;  // Streams that set sla= explicitly.
  std::optional<double> global_sla;

  const std::string_view full = spec;
  std::size_t cursor = 0;
  while (cursor < full.size()) {
    std::size_t semi = full.find(';', cursor);
    if (semi == std::string_view::npos) semi = full.size();
    const std::string_view raw = full.substr(cursor, semi - cursor);
    std::size_t lead = 0;
    while (lead < raw.size() && (raw[lead] == ' ' || raw[lead] == '\t')) ++lead;
    const std::size_t offset = cursor + lead;  // Item start in the full spec.
    const std::string_view item = trim(raw);
    cursor = semi + 1;
    if (item.empty()) continue;

    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos) {
      // Global parameter: key=value.
      const std::size_t eq = item.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        set_error(error, "requests: unrecognized item '" + std::string(item) +
                             "'" + at_offset(offset) +
                             "; expected kind:k=v,... or one of " +
                             std::string(kParamGrammar));
        return std::nullopt;
      }
      const std::string_view key = trim(item.substr(0, eq));
      const std::string_view value = trim(item.substr(eq + 1));
      double d = 0.0;
      std::uint64_t n = 0;
      if (key == "seed" && parse_u64(value, &n)) {
        config.seed = n;
      } else if (key == "util" && parse_double(value, &d) && d > 0.0 &&
                 d <= 1.0) {
        config.target_utilization = d;
      } else if (key == "sla" && parse_double(value, &d) && d > 0.0) {
        global_sla = d;
      } else if (key == "admit" &&
                 parse_admission_policy(value, &config.admission)) {
        // Parsed in place.
      } else if ((key == "cap" || key == "drain") && parse_u64(value, &n)) {
        // Both knobs are stored as u32; a wider value must not wrap (cap=2^32
        // would become 0 and tail-drop would shed every arrival).
        const std::uint64_t lo = key == "cap" ? 1 : 0;
        if (n < lo || n > kMaxU32) {
          set_error(error, "requests: " + std::string(key) +
                               " out of range in '" + std::string(item) +
                               "'" + at_offset(offset) +
                               "; expected an integer in [" +
                               std::to_string(lo) + ", " +
                               std::to_string(kMaxU32) + "]");
          return std::nullopt;
        }
        (key == "cap" ? config.admission_cap : config.drain_intervals) =
            static_cast<std::uint32_t>(n);
      } else if (key == "budget" && parse_double(value, &d) &&
                 std::isfinite(d) && d >= 0.0) {
        config.admission_budget_seconds = d;
      } else {
        set_error(error, "requests: bad parameter '" + std::string(item) +
                             "'" + at_offset(offset) + "; expected one of " +
                             std::string(kParamGrammar));
        return std::nullopt;
      }
      continue;
    }

    // Stream item: kind:key=value,...
    const std::string_view kind_text = trim(item.substr(0, colon));
    StreamSpec stream;
    if (!parse_stream_kind(kind_text, &stream.kind)) {
      set_error(error, "requests: unrecognized stream kind '" +
                           std::string(kind_text) + "'" + at_offset(offset) +
                           "; expected one of " + std::string(kKindGrammar));
      return std::nullopt;
    }
    std::vector<std::pair<std::string_view, std::string_view>> args;
    if (!parse_args(item.substr(colon + 1), item, offset, &args, error)) {
      return std::nullopt;
    }

    bool own_sla = false;
    bool has_rate = false;
    for (const auto& [key, value] : args) {
      double d = 0.0;
      ServiceKind sk{};
      if (key == "rate" && parse_double(value, &d) && d > 0.0) {
        stream.rate = d;
        has_rate = true;
      } else if (key == "amp" && parse_double(value, &d) && d >= 0.0 &&
                 d < 1.0) {
        stream.amplitude = d;
      } else if (key == "period" && parse_double(value, &d) && d > 0.0) {
        stream.period = common::Seconds{d};
      } else if (key == "burst" && parse_double(value, &d) && d >= 1.0) {
        stream.burst = d;
      } else if ((key == "on" || key == "off") && parse_double(value, &d)) {
        // Each flash toggle draws one sojourn; a mean far below a window
        // would take ~window/mean toggles (1e-300 never finishes).
        if (!(d >= kMinFlashMeanSeconds)) {
          set_error(error, "requests: " + std::string(key) +
                               " out of range in '" + std::string(item) +
                               "'" + at_offset(offset) +
                               "; expected a mean of at least 0.001 "
                               "seconds");
          return std::nullopt;
        }
        (key == "on" ? stream.on_mean : stream.off_mean) = common::Seconds{d};
      } else if (key == "file" && !value.empty()) {
        stream.trace_file = std::string(value);
      } else if (key == "scale" && parse_double(value, &d) && d > 0.0) {
        stream.trace_scale = d;
      } else if (key == "service" && parse_service_kind(value, &sk)) {
        stream.service.kind = sk;
      } else if (key == "mean" && parse_double(value, &d) && d > 0.0) {
        stream.service.mean = d;
      } else if (key == "sigma" && parse_double(value, &d) && d > 0.0) {
        stream.service.sigma = d;
      } else if (key == "alpha" && parse_double(value, &d) && d > 1.0) {
        stream.service.alpha = d;
      } else if (key == "sla" && parse_double(value, &d) && d > 0.0) {
        stream.sla_seconds = d;
        own_sla = true;
      } else {
        set_error(error, "requests: bad argument '" + std::string(key) +
                             "' in '" + std::string(item) + "'" +
                             at_offset(offset) + "; expected " +
                             std::string(kKindGrammar) + " with options " +
                             std::string(kStreamOptionGrammar));
        return std::nullopt;
      }
    }

    const bool complete = stream.kind == StreamKind::kTrace
                              ? !stream.trace_file.empty()
                              : has_rate;
    if (!complete) {
      set_error(error, "requests: incomplete stream '" + std::string(item) +
                           "'" + at_offset(offset) + "; expected one of " +
                           std::string(kKindGrammar));
      return std::nullopt;
    }
    config.streams.push_back(std::move(stream));
    has_own_sla.push_back(own_sla);
  }

  if (config.streams.empty()) {
    set_error(error,
              "requests: spec names no stream; expected at least one of " +
                  std::string(kKindGrammar));
    return std::nullopt;
  }
  if (global_sla.has_value()) {
    for (std::size_t i = 0; i < config.streams.size(); ++i) {
      if (!has_own_sla[i]) config.streams[i].sla_seconds = *global_sla;
    }
  }
  return config;
}

std::string RequestWorkloadConfig::to_spec() const {
  std::ostringstream out;
  out << "seed=" << seed << ";util=" << target_utilization;
  if (admission != AdmissionPolicy::kNone) {
    out << ";admit=" << to_string(admission);
    if (admission == AdmissionPolicy::kTailDrop) {
      out << ";cap=" << admission_cap;
    }
    if (admission == AdmissionPolicy::kDeadlineShed &&
        admission_budget_seconds > 0.0) {
      out << ";budget=" << admission_budget_seconds;
    }
  }
  if (drain_intervals > 0) out << ";drain=" << drain_intervals;
  for (const StreamSpec& s : streams) {
    out << ';' << to_string(s.kind) << ':';
    if (s.kind == StreamKind::kTrace) {
      out << "file=" << s.trace_file << ",scale=" << s.trace_scale;
    } else {
      out << "rate=" << s.rate;
    }
    if (s.kind == StreamKind::kDiurnal) {
      out << ",amp=" << s.amplitude << ",period=" << s.period.value;
    }
    if (s.kind == StreamKind::kFlash) {
      out << ",burst=" << s.burst << ",on=" << s.on_mean.value
          << ",off=" << s.off_mean.value;
    }
    out << ",service=" << to_string(s.service.kind)
        << ",mean=" << s.service.mean;
    if (s.service.kind == ServiceKind::kLognormal) {
      out << ",sigma=" << s.service.sigma;
    }
    if (s.service.kind == ServiceKind::kPareto) {
      out << ",alpha=" << s.service.alpha;
    }
    out << ",sla=" << s.sla_seconds;
  }
  return out.str();
}

}  // namespace eclb::workload::engine
