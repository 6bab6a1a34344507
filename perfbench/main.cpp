// eclb_perfbench -- the end-to-end benchmark driver.
//
//   eclb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//
// Runs episodes of one workload (set-up, then every interval stepped) as
// often as they fit in S seconds, at least three times.  Untraced
// (--trace 0) it reports host-time end-to-end metrics; traced (--trace 1) it
// alternates untraced and traced episodes and reports per-layer metrics, the
// tracing overhead and the layer-sum check, and writes the last traced
// episode as Chrome trace-event JSON to FILE.  Every episode is checked:
// self_audit on every shard, the request conservation audit, and a digest
// that must be identical across all episodes of the run (traced and
// untraced alike).  The last stdout line is one JSON object: correct,
// attempted, failed, metrics.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/sysinfo.h"
#include "span_recorder.h"
#include "workloads.h"

namespace {

using perfbench::Clock;
using perfbench::Episode;
using perfbench::EpisodeResult;
using perfbench::LayerTimes;
using perfbench::SpanKind;
using perfbench::SpanRecorder;
using perfbench::WorkloadSpec;

constexpr std::size_t kMinEpisodes = 3;  // untraced; traced runs >= 2 pairs
constexpr std::size_t kSetupRepeats = 5;  // set-up-only builds per run
constexpr double kMaxUnattributedFrac = 0.05;

struct Args {
  const WorkloadSpec* workload{nullptr};
  std::uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  std::string trace_out;
};

int usage() {
  std::fprintf(stderr,
               "usage: eclb_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:");
  for (const WorkloadSpec& w : perfbench::workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

template <typename T>
bool parse_number(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc{} && ptr == end;
}

bool parse_args(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string_view value = argv[i + 1];
    if (key == "--workload") {
      args->workload = perfbench::find_workload(value);
      if (args->workload == nullptr) return false;
    } else if (key == "--seed") {
      have_seed = parse_number(value, &args->seed);
    } else if (key == "--seconds") {
      have_seconds = parse_number(value, &args->seconds) && args->seconds > 0.0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->workload != nullptr && have_seed &&
         have_seconds && have_trace;
}

/// Numbers from a sanitizer or unoptimized build are not the product's.
bool timing_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__OPTIMIZE__)
  return false;
#else
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") != 0;
#endif
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// True when one more round as long as the last still ends in the budget.
bool fits(Clock::time_point start, double last_s, double budget_s) {
  return seconds_between(start, Clock::now()) + last_s <= budget_s;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One episode's host-time measurements and results.
struct Run {
  double setup_s{0.0};
  double step_s{0.0};
  std::vector<double> interval_ms;
  EpisodeResult result;
  std::size_t threads{1};
  LayerTimes layers;                      // traced only
  std::unique_ptr<SpanRecorder> recorder;  // traced only
};

Run run_episode(const WorkloadSpec& spec, std::uint64_t seed, bool traced) {
  Run run;
  // Created before the episode so the tracers outlive the clusters that
  // hold their addresses.
  if (traced) run.recorder = std::make_unique<SpanRecorder>(spec.shards);
  SpanRecorder* rec = run.recorder.get();

  const Clock::time_point setup_start = Clock::now();
  Episode episode(spec, seed);
  run.setup_s = seconds_between(setup_start, Clock::now());
  run.threads = episode.resolved_threads();
  if (rec != nullptr) {
    for (std::size_t i = 0; i < episode.shard_count(); ++i) {
      episode.shard(i).attach_observer(&rec->shard(i));
    }
    episode.set_phase_timing(true);
  }

  run.interval_ms.reserve(spec.intervals);
  for (std::size_t k = 0; k < spec.intervals; ++k) {
    const auto interval = static_cast<std::uint32_t>(k);
    const Clock::time_point begin = Clock::now();
    if (rec == nullptr) {
      episode.advance_requests();
      episode.step();
    } else {
      if (episode.has_requests()) {
        const std::int64_t a = rec->now_ns();
        episode.advance_requests();
        rec->record(SpanKind::kAdvance, a, rec->now_ns(), interval);
      }
      const std::int64_t s = rec->now_ns();
      episode.step();
      rec->record(SpanKind::kStep, s, rec->now_ns(), interval);
    }
    const double ms = 1e3 * seconds_between(begin, Clock::now());
    run.interval_ms.push_back(ms);
    run.step_s += ms / 1e3;
    episode.fold();
  }
  run.result = episode.finish();
  if (rec != nullptr) run.layers = rec->attribute();
  return run;
}

/// A named metric line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, ptr) : std::string("0");
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// The output checks over every episode of a run: audits pass and every
/// digest equals the first.  Returns which episodes failed.
std::vector<bool> check_episodes(const std::vector<const Run*>& runs) {
  std::vector<bool> bad(runs.size(), false);
  const std::uint64_t reference = runs.front()->result.digest;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const EpisodeResult& r = runs[i]->result;
    if (!r.audit_error.empty()) {
      std::printf("check FAILED: episode %zu: %s\n", i, r.audit_error.c_str());
      bad[i] = true;
    } else if (r.digest != reference) {
      std::printf("check FAILED: episode %zu digest %016llx != %016llx\n", i,
                  static_cast<unsigned long long>(r.digest),
                  static_cast<unsigned long long>(reference));
      bad[i] = true;
    }
  }
  return bad;
}

void print_model(const EpisodeResult& r, bool requests) {
  std::printf("model outputs (not gated):\n");
  std::printf("  model.digest                 %016llx\n",
              static_cast<unsigned long long>(r.digest));
  print_metrics({{"model.energy_kwh", r.energy_kwh, "kWh"},
                 {"model.sla_violations",
                  static_cast<double>(r.sla_violations), "count"}});
  if (requests) {
    print_metrics({{"model.request_sla_violations",
                    static_cast<double>(r.request_sla_violations), "count"},
                   {"model.sojourn_p99_s", r.sojourn_p99_s, "s"}});
  }
}

int run_untraced(const Args& args) {
  const WorkloadSpec& spec = *args.workload;
  const Clock::time_point start = Clock::now();
  // Set-up is short next to stepping, so it is also timed on its own a few
  // times; setup_s is the median over these and every episode's set-up.
  std::vector<double> setup;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    const auto episode = std::make_unique<Episode>(spec, args.seed);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  std::vector<Run> runs;
  double last = 0.0;
  std::size_t peak_rss = 0;
  while (runs.size() < kMinEpisodes || fits(start, last, args.seconds)) {
    const Clock::time_point t0 = Clock::now();
    runs.push_back(run_episode(spec, args.seed, false));
    last = seconds_between(t0, Clock::now());
    // Taken after the first episode, so it does not depend on how many
    // episodes the host's speed lets into the run.
    if (runs.size() == 1) peak_rss = eclb::common::peak_rss_bytes();
  }
  std::vector<const Run*> all;
  for (const Run& r : runs) all.push_back(&r);
  const std::vector<bool> bad = check_episodes(all);

  const bool requests = !spec.requests.empty();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t e = 0; e < runs.size(); ++e) {
    const EpisodeResult& r = runs[e].result;
    const std::uint64_t work = requests ? r.requests_generated : spec.intervals;
    attempted += work;
    failed += bad[e] ? work : (requests ? r.requests_failed : 0);
    setup.push_back(runs[e].setup_s);
  }
  // Every episode replays the same seed, so interval k is the same work in
  // each.  Its host time is the lower quartile of its times over the
  // episodes: other tenants of a shared host slow whole stretches of a run,
  // and the lower quartile drops them where a median still shifts.  step_s
  // sums these per-interval times; p50 and the tail are taken over them.
  std::vector<double> profile;
  for (std::size_t k = 0; k < spec.intervals; ++k) {
    std::vector<double> same;
    for (const Run& r : runs) same.push_back(r.interval_ms[k]);
    std::sort(same.begin(), same.end());
    profile.push_back(same[(same.size() - 1) / 4]);
  }
  double step_ms = 0.0;
  for (const double ms : profile) step_ms += ms;
  const double step_s = step_ms / 1e3;
  // The tail: the highest percentile with ten intervals beyond it.
  std::sort(profile.begin(), profile.end());
  const double tail = profile[spec.intervals - 11];
  const double tail_pct =
      100.0 * static_cast<double>(spec.intervals - 10) /
      static_cast<double>(spec.intervals);
  const double work =
      requests ? static_cast<double>(runs.front().result.requests_generated)
               : static_cast<double>(spec.servers * spec.intervals);
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const double peak_rss_mb = static_cast<double>(peak_rss) / (1024.0 * 1024.0);

  std::printf("episodes %zu, fabric threads %zu, interval tail p%.1f of %zu "
              "intervals\n",
              runs.size(), runs.front().threads, tail_pct, spec.intervals);
  std::printf("step_s per episode:");
  for (const Run& r : runs) std::printf(" %.4f", r.step_s);
  std::printf("\n");
  print_model(runs.front().result, requests);
  std::printf("end-to-end metrics (host time):\n");
  std::vector<Metric> metrics = {
      {"setup_s", median(setup), "s"},
      {"step_s", step_s, "s"},
      {"interval_ms_p50", median(profile), "ms"},
      {"interval_ms_tail", tail, "ms"},
      {"work_per_s", work / step_s, "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"ok_frac", 1.0 - failed_frac, "ratio"},
  };
  print_metrics(metrics);
  std::vector<Metric> extra = {{"failed_frac", failed_frac, "ratio"}};
  if (requests) extra.push_back({"requests_per_s", work / step_s, "1/s"});
  print_metrics(extra);
  print_result(std::count(bad.begin(), bad.end(), true) == 0, attempted,
               failed, metrics);
  return 0;
}

int run_traced(const Args& args) {
  const WorkloadSpec& spec = *args.workload;
  const Clock::time_point start = Clock::now();
  std::vector<Run> plain;
  std::vector<Run> traced;
  double last = 0.0;
  while (traced.size() < 2 || fits(start, last, args.seconds)) {
    const Clock::time_point t0 = Clock::now();
    plain.push_back(run_episode(spec, args.seed, false));
    // Only the last traced episode's spans are written out.
    if (!traced.empty()) traced.back().recorder.reset();
    traced.push_back(run_episode(spec, args.seed, true));
    last = seconds_between(t0, Clock::now());
  }
  std::vector<const Run*> all;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    all.push_back(&plain[i]);
    all.push_back(&traced[i]);
  }
  const std::vector<bool> checks = check_episodes(all);
  const auto bad =
      static_cast<std::size_t>(std::count(checks.begin(), checks.end(), true));

  std::vector<double> plain_step;
  std::vector<double> traced_step;
  for (const Run& r : plain) plain_step.push_back(r.step_s);
  for (const Run& r : traced) traced_step.push_back(r.step_s);
  const double overhead = median(traced_step) / median(plain_step) - 1.0;

  // Per-layer figures come from one traced episode -- the one with the
  // median step time -- so they add up exactly to its step time.
  std::vector<std::size_t> order(traced.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return traced[a].step_s < traced[b].step_s;
  });
  const Run& rep = traced[order[(order.size() - 1) / 2]];
  const LayerTimes& l = rep.layers;
  const EpisodeResult& r = rep.result;
  const double step_ms = 1e3 * rep.step_s;
  const double unattributed = step_ms - l.self_sum_ms();
  const double unattributed_frac = unattributed / step_ms;
  const double utilization =
      l.parallel_ms > 0.0
          ? l.round_sum_ms / (static_cast<double>(rep.threads) * l.parallel_ms)
          : 0.0;

  std::printf("episodes %zu untraced + %zu traced, fabric threads %zu\n",
              plain.size(), traced.size(), rep.threads);
  print_model(r, !spec.requests.empty());
  std::printf("layer sum: %.3f ms of self time + %.3f ms unattributed = "
              "%.3f ms step time\n",
              l.self_sum_ms(), unattributed, step_ms);
  if (std::abs(unattributed_frac) > kMaxUnattributedFrac) {
    std::printf("layer-sum gap: %.1f%% of step time is unattributed "
                "(limit %.0f%%)\n",
                100.0 * unattributed_frac, 100.0 * kMaxUnattributedFrac);
  }
  if (!args.trace_out.empty()) {
    if (traced.back().recorder->write_chrome_trace(args.trace_out)) {
      std::printf("chrome trace: %s\n", args.trace_out.c_str());
    } else {
      std::printf("chrome trace: could not write %s\n", args.trace_out.c_str());
    }
  }

  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const double retry_ratio =
      r.fault_dropped > 0
          ? count(r.fault_retried) / count(r.fault_dropped)
          : 0.0;
  std::printf("per-layer metrics (traced episode with the median step "
              "time):\n");
  const std::vector<Metric> metrics = {
      {"requests.advance_ms", l.advance_ms, "ms"},
      {"requests.generated", count(r.requests_generated), "count"},
      {"requests.completed", count(r.requests_completed), "count"},
      {"requests.not_completed",
       count(r.requests_generated - r.requests_completed), "count"},
      {"cluster.round_ms", l.round_sum_ms, "ms"},
      {"cluster.protocol_self_ms", l.protocol_self_ms, "ms"},
      {"cluster.messages", count(r.messages), "count"},
      {"cluster.kernel_ms", l.kernel_ms, "ms"},
      {"placement.search_ms", l.placement_ms, "ms"},
      {"placement.search_calls", count(l.placement_calls), "count"},
      {"energy.settle_ms", l.settle_ms, "ms"},
      {"index.flushes", count(r.pipeline.flushes), "count"},
      {"index.dirty_slots", count(r.pipeline.dirty_slots), "count"},
      {"index.batch_refiles", count(r.pipeline.batch_refiles), "count"},
      {"index.refile_runs", count(r.pipeline.refile_runs), "count"},
      {"index.classify_ms", 1e3 * r.pipeline.classify_seconds, "ms"},
      {"index.diff_ms", 1e3 * r.pipeline.diff_seconds, "ms"},
      {"index.refile_ms", 1e3 * r.pipeline.refile_seconds, "ms"},
      {"fabric.parallel_ms", l.parallel_ms, "ms"},
      {"fabric.skew_ms", l.skew_ms, "ms"},
      {"fabric.barrier_ms", l.barrier_ms, "ms"},
      {"fabric.utilization", utilization, "ratio"},
      {"fabric.offloaded", count(r.offloaded), "count"},
      {"fabric.unplaced", count(r.unplaced), "count"},
      {"fault.dropped", count(r.fault_dropped), "count"},
      {"fault.retried", count(r.fault_retried), "count"},
      {"fault.failed_migrations", count(r.fault_failed_migrations), "count"},
      {"fault.shadow_restarts", count(r.fault_shadow_restarts), "count"},
      {"fault.retry_ratio", retry_ratio, "ratio"},
      {"mem.state_table_bytes", count(r.memory.state_table_bytes), "bytes"},
      {"mem.index_bytes", count(r.memory.index_bytes), "bytes"},
      {"mem.vm_bytes", count(r.memory.vm_storage_bytes), "bytes"},
      {"mem.recorder_bytes", count(r.memory.recorder_bytes), "bytes"},
      {"mem.bytes_per_server", r.memory.bytes_per_server, "bytes"},
      {"trace.step_s", rep.step_s, "s"},
      {"trace.overhead_frac", overhead, "ratio"},
      {"trace.unattributed_ms", unattributed, "ms"},
      {"trace.unattributed_frac", unattributed_frac, "ratio"},
  };
  print_metrics(metrics);
  const std::uint64_t attempted = all.size() * spec.intervals;
  print_result(bad == 0, attempted, bad * spec.intervals, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  const eclb::common::SysInfo info = eclb::common::query_sysinfo();
  std::printf("build: %s, lto %s, assertions %s, compiler %s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_LTO ? "on" : "off",
              info.assertions ? "on" : "off", info.compiler.c_str());
  std::printf("host: %s %s %s, nproc %zu\n", info.os.c_str(),
              info.release.c_str(), info.machine.c_str(), info.cpus);
  if (!timing_build()) {
    std::fprintf(stderr, "eclb_perfbench: refusing to report from a "
                         "sanitizer or unoptimized build\n");
    return 3;
  }
  const WorkloadSpec& w = *args.workload;
  std::printf("workload %.*s: %zu servers in %zu shard%s, %zu intervals, "
              "seed %llu%s%.*s%s%.*s\n",
              static_cast<int>(w.name.size()), w.name.data(), w.servers,
              w.shards, w.shards == 1 ? "" : "s", w.intervals,
              static_cast<unsigned long long>(args.seed),
              w.requests.empty() ? "" : ", requests ",
              static_cast<int>(w.requests.size()), w.requests.data(),
              w.faults.empty() ? "" : ", faults ",
              static_cast<int>(w.faults.size()), w.faults.data());
  try {
    return args.trace ? run_traced(args) : run_untraced(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eclb_perfbench: %s\n", e.what());
    return 1;
  }
}
