#include "workload/engine/spec.h"

#include <limits>
#include <sstream>
#include <utility>

#include "common/spec_reader.h"
#include "workload/engine/latency.h"

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

/// Largest accepted flash burst multiplier.  Thinning draws candidates at
/// rate * burst in both phases, so the cost of a window grows with it
/// (burst=1e300 never finished one); the diagnostic quotes it as "1000".
constexpr double kMaxFlashBurst = 1000.0;

/// Largest accepted peak arrival rate (peak_rate: rate, rate*(1+amp) or
/// rate*burst), in requests per second.  Every arrival is held in memory
/// for its window, so rate=1e9 ran out of memory; the diagnostic quotes it
/// as "1e6".
constexpr double kMaxPeakRate = 1e6;

constexpr std::string_view kParamGrammar =
    "seed=N, util=F, sla=SECS, admit=none|tail-drop|deadline-shed, cap=N, "
    "budget=SECS, drain=N";

// Enumerator counts, for common::read_name.
constexpr std::size_t kStreamKinds =
    static_cast<std::size_t>(StreamKind::kTrace) + 1;
constexpr std::size_t kServiceKinds =
    static_cast<std::size_t>(ServiceKind::kPareto) + 1;
constexpr std::size_t kAdmissionPolicies =
    static_cast<std::size_t>(AdmissionPolicy::kDeadlineShed) + 1;

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

bool RequestWorkloadConfig::set_global(std::string_view key,
                                       std::string_view value,
                                       std::string* expected,
                                       std::optional<double>* global_sla) {
  double d = 0.0;
  std::uint64_t n = 0;
  // cap and drain are stored as u32; a wider value must not wrap (cap=2^32
  // would become 0 and tail-drop would shed every arrival).
  const std::uint64_t min_count = key == "cap" ? 1 : 0;
  if (key == "seed" && common::read_number(value, &n)) {
    seed = n;
  } else if (key == "util" && common::read_number(value, &d) && d > 0.0 &&
             d <= 1.0) {
    target_utilization = d;
  } else if (key == "sla" && global_sla != nullptr &&
             common::read_number(value, &d) && d > 0.0) {
    *global_sla = d;
  } else if (key == "admit" &&
             common::read_name(value, kAdmissionPolicies, &admission)) {
    // Parsed in place.
  } else if ((key == "cap" || key == "drain") &&
             common::read_number(value, &n) && n >= min_count &&
             n <= kMaxU32) {
    (key == "cap" ? admission_cap : drain_intervals) =
        static_cast<std::uint32_t>(n);
  } else if (key == "budget" && common::read_number(value, &d) && d >= 0.0) {
    admission_budget_seconds = d;
  } else {
    if (expected != nullptr) {
      *expected = key == "cap" || key == "drain"
                      ? std::string(key) + " out of range, expected an "
                        "integer in [" + std::to_string(min_count) + ", " +
                        std::to_string(kMaxU32) + "]"
                      : "expected one of " + std::string(kParamGrammar);
    }
    return false;
  }
  return true;
}

std::optional<RequestWorkloadConfig> RequestWorkloadConfig::parse(
    std::string_view spec, std::string* error) {
  RequestWorkloadConfig config;
  std::vector<bool> has_own_sla;  // Streams that set sla= explicitly.
  std::optional<double> global_sla;

  common::SpecReader reader("requests", spec, error);
  common::SpecItem item;
  while (reader.next(&item)) {
    const std::size_t colon = item.text.find(':');
    if (colon == std::string_view::npos) {
      // Global parameter: key=value.
      const std::size_t eq = item.text.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        reader.fail(item, "unrecognized item",
                    "expected kind:k=v,... or one of " +
                        std::string(kParamGrammar));
        return std::nullopt;
      }
      std::string expected;
      if (!config.set_global(common::trim(item.text.substr(0, eq)),
                             item.text.substr(eq + 1), &expected,
                             &global_sla)) {
        reader.fail(item, "bad parameter", expected);
        return std::nullopt;
      }
      continue;
    }

    // Stream item: kind:key=value,...
    StreamSpec stream;
    if (!common::read_name(item.text.substr(0, colon), kStreamKinds,
                           &stream.kind)) {
      reader.fail(item, "unrecognized stream kind in",
                  "expected one of " + std::string(kKindGrammar));
      return std::nullopt;
    }
    common::SpecArgs args;
    if (!reader.split_args(item.text.substr(colon + 1), item, &args)) {
      return std::nullopt;
    }

    bool own_sla = false;
    bool has_rate = false;
    for (const auto& [key, value] : args) {
      double d = 0.0;
      const bool number = common::read_number(value, &d);
      if (key == "rate" && number && d > 0.0) {
        stream.rate = d;
        has_rate = true;
      } else if (key == "amp" && number && d >= 0.0 && d < 1.0) {
        stream.amplitude = d;
      } else if (key == "period" && number && d > 0.0) {
        stream.period = common::Seconds{d};
      } else if (key == "burst" && number) {
        if (!(d >= 1.0 && d <= kMaxFlashBurst)) {
          reader.fail(item, "burst out of range in",
                      "expected a multiplier in [1, 1000]");
          return std::nullopt;
        }
        stream.burst = d;
      } else if ((key == "on" || key == "off") && number) {
        // Each flash toggle draws one sojourn; a mean far below a window
        // would take ~window/mean toggles (1e-300 never finishes).
        if (!(d >= kMinFlashMeanSeconds)) {
          reader.fail(item, std::string(key) + " out of range in",
                      "expected a mean of at least 0.001 seconds");
          return std::nullopt;
        }
        (key == "on" ? stream.on_mean : stream.off_mean) = common::Seconds{d};
      } else if (key == "file" && !value.empty()) {
        stream.trace_file = std::string(value);
      } else if (key == "scale" && number && d > 0.0) {
        stream.trace_scale = d;
      } else if (key == "service" && common::read_name(value, kServiceKinds,
                                                       &stream.service.kind)) {
        // Parsed in place.
      } else if (key == "mean" && number && d > 0.0) {
        // A sojourn at or past the histogram's top bucket only lands in
        // overflow (mean=1e300 printed a 300-digit backlog).
        if (!(d <= LatencyHistogram::kHiSeconds)) {
          reader.fail(item, "mean out of range in",
                      "expected a mean service time of at most 10000 "
                      "seconds");
          return std::nullopt;
        }
        stream.service.mean = d;
      } else if (key == "sigma" && number && d > 0.0) {
        stream.service.sigma = d;
      } else if (key == "alpha" && number && d > 1.0) {
        stream.service.alpha = d;
      } else if (key == "sla" && number && d > 0.0) {
        stream.sla_seconds = d;
        own_sla = true;
      } else {
        reader.fail(item, "bad argument '" + std::string(key) + "' in",
                    "expected " + std::string(kKindGrammar) +
                        " with options " + std::string(kStreamOptionGrammar));
        return std::nullopt;
      }
    }

    const bool complete = stream.kind == StreamKind::kTrace
                              ? !stream.trace_file.empty()
                              : has_rate;
    if (!complete) {
      reader.fail(item, "incomplete stream",
                  "expected one of " + std::string(kKindGrammar));
      return std::nullopt;
    }
    if (!(peak_rate(stream) <= kMaxPeakRate)) {
      reader.fail(item, "peak rate out of range in",
                  "expected a peak rate of at most 1e6 requests/s (rate, "
                  "rate*(1+amp) for diurnal, rate*burst for flash)");
      return std::nullopt;
    }
    config.streams.push_back(std::move(stream));
    has_own_sla.push_back(own_sla);
  }

  if (config.streams.empty()) {
    reader.fail("spec names no stream; expected at least one of " +
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
  using common::format_number;
  std::ostringstream out;
  out << "seed=" << seed << ";util=" << format_number(target_utilization);
  if (admission != AdmissionPolicy::kNone) {
    out << ";admit=" << to_string(admission);
    if (admission == AdmissionPolicy::kTailDrop) {
      out << ";cap=" << admission_cap;
    }
    if (admission == AdmissionPolicy::kDeadlineShed &&
        admission_budget_seconds > 0.0) {
      out << ";budget=" << format_number(admission_budget_seconds);
    }
  }
  if (drain_intervals > 0) out << ";drain=" << drain_intervals;
  for (const StreamSpec& s : streams) {
    out << ';' << to_string(s.kind) << ':';
    if (s.kind == StreamKind::kTrace) {
      out << "file=" << s.trace_file
          << ",scale=" << format_number(s.trace_scale);
    } else {
      out << "rate=" << format_number(s.rate);
    }
    if (s.kind == StreamKind::kDiurnal) {
      out << ",amp=" << format_number(s.amplitude)
          << ",period=" << format_number(s.period.value);
    }
    if (s.kind == StreamKind::kFlash) {
      out << ",burst=" << format_number(s.burst)
          << ",on=" << format_number(s.on_mean.value)
          << ",off=" << format_number(s.off_mean.value);
    }
    out << ",service=" << to_string(s.service.kind)
        << ",mean=" << format_number(s.service.mean);
    if (s.service.kind == ServiceKind::kLognormal) {
      out << ",sigma=" << format_number(s.service.sigma);
    }
    if (s.service.kind == ServiceKind::kPareto) {
      out << ",alpha=" << format_number(s.service.alpha);
    }
    out << ",sla=" << format_number(s.sla_seconds);
  }
  return out.str();
}

}  // namespace eclb::workload::engine
