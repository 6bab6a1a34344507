// P1: the recorded perf baseline for the scan-free protocol hot path.
//
// Standalone harness (no external benchmark framework): sweeps the
// per-interval cluster step across cluster sizes (8 warmup intervals past
// the placement transient, then the median of individually timed
// intervals), times the sharded fabric (10 x 100 anchor, 100 x 1000 =
// 1e5-server scale point) and smoke-checks its thread-count determinism,
// measures steady-state event-queue throughput with a global allocation
// counter, and emits the results as BENCH_perf.json (schema "eclb-perf-2").
// With --check <reference.json> it gates the SoA data plane's
// bytes-per-server footprint at 1.5x the recorded value, the fabric
// overhead ratio at half the recorded figure and fabric determinism hard --
// the CI perf smoke gate.  End-to-end run times are the perfbench/ harness's
// job.
//
// Usage:
//   perf_kernel [--ci] [--tiny] [--full] [--phases] [--out BENCH_perf.json]
//               [--check ref.json]
//     --ci     small sizes only (100, 1000 flat + 10 x 100 fabric): fast
//              enough for every CI run.
//     --tiny   smallest possible sweep (100 flat + 10 x 10 fabric, short
//              queue/request cycles): a seconds-long smoke of every code
//              path, for the CI perf-smoke job.
//     --full   adds the 1e6-server fabric (minutes, local only).
//     --phases breaks the coalesced notification pipeline's interval down
//              into classify / diff / refile / protocol wall-clock at the
//              largest flat size of the run (emitted as pipeline_phases).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fabric.h"
#include "common/flags.h"
#include "common/sysinfo.h"
#include "experiment/request_driver.h"
#include "experiment/scenario.h"
#include "sim/event_queue.h"
#include "workload/engine/engine.h"

// --- global allocation counter ---------------------------------------------
//
// Counts every operator-new on the process; the event-queue benchmark reads
// it around its steady-state cycle to prove the hot path performs zero
// per-event heap allocations (SBO callbacks + retained heap capacity).

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace eclb;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- cluster step sweep -----------------------------------------------------

struct StepSample {
  std::size_t servers{0};
  std::size_t intervals{0};
  double ms_per_interval{0.0};
  double bytes_per_server{0.0};
};

/// Intervals to time per size, derived from a fixed work budget of
/// ~50k server-intervals per sample rather than a hand-tuned table: the
/// counts scale automatically as sizes are added and as the kernel gets
/// faster, instead of drifting in BENCH_perf.json.  Floor of 5 keeps the
/// median meaningful at large N; cap of 200 bounds tiny-cluster runs.
std::size_t intervals_for(std::size_t servers) {
  constexpr std::size_t kServerIntervalBudget = 50000;
  const std::size_t k = kServerIntervalBudget / (servers == 0 ? 1 : servers);
  return std::clamp<std::size_t>(k, 5, 200);
}

StepSample time_cluster_step(std::size_t servers) {
  cluster::Cluster c(experiment::paper_cluster_config(
      servers, experiment::AverageLoad::kLow30, 42));
  // Warmup: the opening intervals are a placement transient (the initial
  // sleep wave plus consolidation churn, roughly 1.5-2x the sustained cost);
  // run past it so the figure reports steady-state throughput.
  constexpr std::size_t kWarmupIntervals = 8;
  for (std::size_t i = 0; i < kWarmupIntervals; ++i) c.step();
  // Time each interval individually and report the median: a shared CI
  // runner can stall any single interval, and the median discards those
  // spikes where a mean would smear them across the figure.
  const std::size_t k = intervals_for(servers);
  std::vector<double> laps(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto start = Clock::now();
    c.step();
    laps[i] = seconds_since(start);
  }
  std::sort(laps.begin(), laps.end());
  const double median = (k % 2 != 0)
                            ? laps[k / 2]
                            : 0.5 * (laps[k / 2 - 1] + laps[k / 2]);
  StepSample s;
  s.servers = servers;
  s.intervals = k;
  s.ms_per_interval = 1e3 * median;
  s.bytes_per_server = c.memory_stats().bytes_per_server;
  return s;
}

// --- fabric step sweep ------------------------------------------------------

struct FabricSample {
  std::size_t shards{0};
  std::size_t servers_per_shard{0};
  std::size_t threads{0};           ///< Requested (0 = hardware).
  std::size_t resolved_threads{0};  ///< Threads the parallel phase ran on.
  std::size_t intervals{0};
  double ms_per_interval{0.0};
};

cluster::FabricConfig fabric_config(std::size_t shards,
                                    std::size_t servers_per_shard,
                                    std::size_t threads) {
  cluster::FabricConfig cfg;
  cfg.shard_count = shards;
  cfg.threads = threads;
  cfg.cluster_template = experiment::paper_cluster_config(
      servers_per_shard, experiment::AverageLoad::kLow30, 42);
  return cfg;
}

FabricSample time_fabric_step(std::size_t shards, std::size_t servers_per_shard,
                              std::size_t threads) {
  cluster::Fabric fabric(fabric_config(shards, servers_per_shard, threads));
  // Same warmup + median-of-laps discipline as time_cluster_step, budgeted
  // on total fabric servers.
  constexpr std::size_t kWarmupIntervals = 8;
  for (std::size_t i = 0; i < kWarmupIntervals; ++i) fabric.step();
  const std::size_t k = intervals_for(shards * servers_per_shard);
  std::vector<double> laps(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto start = Clock::now();
    fabric.step();
    laps[i] = seconds_since(start);
  }
  std::sort(laps.begin(), laps.end());
  const double median = (k % 2 != 0)
                            ? laps[k / 2]
                            : 0.5 * (laps[k / 2 - 1] + laps[k / 2]);
  FabricSample s;
  s.shards = shards;
  s.servers_per_shard = servers_per_shard;
  s.threads = threads;
  s.resolved_threads = fabric.resolved_threads();
  s.intervals = k;
  s.ms_per_interval = 1e3 * median;
  return s;
}

// --- pipeline phase breakdown -----------------------------------------------

struct PhaseSample {
  std::size_t servers{0};
  std::size_t intervals{0};
  double classify_ms{0.0};  ///< Batch gather-classification, per interval.
  double diff_ms{0.0};      ///< Slot diff + bitset/aggregate apply.
  double refile_ms{0.0};    ///< Grouped-run apply to the key axes.
  double protocol_ms{0.0};  ///< Interval wall-clock minus the flush phases.
  double dirty_per_interval{0.0};
  double refiles_per_interval{0.0};
  double runs_per_interval{0.0};
};

/// Times the interval with pipeline phase timing switched on and splits the
/// wall clock into the three flush phases plus the protocol remainder.  Runs
/// on a separate cluster instance so the headline ms_per_interval figures
/// never pay for the clock reads.
PhaseSample time_pipeline_phases(std::size_t servers) {
  auto cfg = experiment::paper_cluster_config(
      servers, experiment::AverageLoad::kLow30, 42);
  cluster::Cluster c(cfg);
  c.set_pipeline_phase_timing(true);
  constexpr std::size_t kWarmupIntervals = 8;
  for (std::size_t i = 0; i < kWarmupIntervals; ++i) c.step();
  const std::size_t k = intervals_for(servers);
  const auto before = c.pipeline_stats();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < k; ++i) c.step();
  const double wall_ms = 1e3 * seconds_since(start);
  const auto after = c.pipeline_stats();
  const double n = static_cast<double>(k);
  PhaseSample p;
  p.servers = servers;
  p.intervals = k;
  p.classify_ms = 1e3 * (after.classify_seconds - before.classify_seconds) / n;
  p.diff_ms = 1e3 * (after.diff_seconds - before.diff_seconds) / n;
  p.refile_ms = 1e3 * (after.refile_seconds - before.refile_seconds) / n;
  p.protocol_ms =
      wall_ms / n - (p.classify_ms + p.diff_ms + p.refile_ms);
  p.dirty_per_interval =
      static_cast<double>(after.dirty_slots - before.dirty_slots) / n;
  p.refiles_per_interval =
      static_cast<double>(after.batch_refiles - before.batch_refiles) / n;
  p.runs_per_interval =
      static_cast<double>(after.refile_runs - before.refile_runs) / n;
  return p;
}

/// The barrier protocol's promise, smoke-checked on every perf run: the same
/// fabric seed replayed at 1 and 2 worker threads produces bit-identical
/// per-interval digests and final state.
bool fabric_determinism_ok() {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kServers = 50;
  constexpr std::size_t kSteps = 6;
  std::vector<std::uint64_t> runs[2];
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    cluster::Fabric fabric(fabric_config(kShards, kServers, threads));
    auto& digests = runs[threads - 1];
    digests.reserve(kSteps + 1);
    for (std::size_t i = 0; i < kSteps; ++i) {
      digests.push_back(cluster::fabric_report_digest(fabric.step()));
    }
    digests.push_back(fabric.state_digest());
  }
  return runs[0] == runs[1];
}

// --- request engine benchmark -----------------------------------------------

struct RequestSample {
  std::size_t requests{0};
  double requests_per_sec{0.0};
};

/// Times the open-loop arrival generator on a mixed three-stream workload
/// (Poisson + diurnal + flash-crowd MMPP with lognormal service times) --
/// the per-request hot path behind `--requests` and the X13 bench.  The
/// throughput figure is requests generated per wall-clock second, gated in
/// the reference at half the recorded value.
RequestSample time_request_engine(std::size_t target_requests) {
  std::string error;
  const auto cfg = workload::engine::RequestWorkloadConfig::parse(
      "poisson:rate=400,mean=0.2;diurnal:rate=300,amp=0.6,period=3600;"
      "flash:rate=200,burst=6,on=120,off=600;seed=17",
      &error);
  if (!cfg.has_value()) {
    std::fprintf(stderr, "request engine spec: %s\n", error.c_str());
    std::exit(2);
  }
  workload::engine::RequestEngine engine(*cfg);
  std::vector<std::vector<workload::engine::Request>> per_stream;
  // Warm one window so buffer growth is off the clock.
  engine.generate(common::Seconds{0.0}, common::Seconds{60.0}, &per_stream);
  const std::uint64_t warm = engine.total_generated();
  double t = 60.0;
  const auto start = Clock::now();
  while (engine.total_generated() - warm < target_requests) {
    engine.generate(common::Seconds{t}, common::Seconds{t + 60.0},
                    &per_stream);
    t += 60.0;
  }
  const double elapsed = seconds_since(start);
  RequestSample s;
  s.requests = engine.total_generated() - warm;
  s.requests_per_sec =
      elapsed > 0.0 ? static_cast<double>(s.requests) / elapsed : 0.0;
  return s;
}

// --- sleep/wake hysteresis row ----------------------------------------------

struct HysteresisSample {
  std::size_t flaps_raw{0};     ///< wake_sleep_flaps, hysteresis off.
  std::size_t flaps_damped{0};  ///< wake_sleep_flaps, hysteresis on.
};

/// Replays a fixed on/off flash workload (request-driven demand, 40
/// servers, 30 intervals, deep-sleep budget raised to 10 %/interval so the
/// idle phases genuinely put servers into C3/C6 and the bursts recall them)
/// with sleep/wake hysteresis off and on and counts the wake_sleep_flaps
/// each run books.  The scenario is identical in every mode (--tiny through
/// --full) and fully deterministic -- the counts are simulation facts, not
/// timings -- so the reference gates them exactly: the damped count may
/// never exceed the raw count, and may never grow past the recorded value.
HysteresisSample measure_hysteresis() {
  const auto run = [](bool hysteresis) {
    auto cfg = experiment::paper_cluster_config(
        40, experiment::AverageLoad::kLow30, 77);
    cfg.demand_evolution_enabled = false;
    cfg.max_sleep_fraction_per_interval = 0.1;
    cfg.hysteresis.enabled = hysteresis;
    cluster::Cluster c(cfg);
    std::string error;
    const auto wl = workload::engine::RequestWorkloadConfig::parse(
        "flash:rate=20,burst=10,on=60,off=300,mean=0.2,sla=30;seed=9;"
        "util=0.7",
        &error);
    if (!wl.has_value()) {
      std::fprintf(stderr, "hysteresis spec: %s\n", error.c_str());
      std::exit(2);
    }
    experiment::RequestDriver driver(c, *wl);
    std::size_t flaps = 0;
    for (int i = 0; i < 30; ++i) {
      driver.advance_interval();
      flaps += c.step().wake_sleep_flaps;
    }
    return flaps;
  };
  HysteresisSample s;
  s.flaps_raw = run(false);
  s.flaps_damped = run(true);
  return s;
}

// --- event-queue benchmark --------------------------------------------------

struct QueueSample {
  std::size_t events{0};
  double ns_per_event{0.0};
  double allocs_per_event{0.0};
};

QueueSample time_event_queue(std::size_t n) {
  sim::EventQueue q;
  common::Rng rng(1);
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniform(0.0, 1e6);

  // Cycle 0 warms the heap vector to full capacity; pops retain it, so the
  // measured cycle runs allocation-free end to end.
  for (int cycle = 0; cycle < 2; ++cycle) {
    const std::size_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      q.push(common::Seconds{times[i]}, [](sim::Simulation&) {});
    }
    std::size_t popped = 0;
    while (q.pop().has_value()) ++popped;
    const double elapsed = seconds_since(start);
    const std::size_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    if (popped != n) {
      std::fprintf(stderr, "event queue lost events: %zu != %zu\n", popped, n);
      std::exit(2);
    }
    if (cycle == 1) {
      QueueSample s;
      s.events = n;
      s.ns_per_event = 1e9 * elapsed / (2.0 * static_cast<double>(n));
      s.allocs_per_event =
          static_cast<double>(allocs) / static_cast<double>(n);
      return s;
    }
  }
  return {};
}

// --- JSON output ------------------------------------------------------------

/// Bytes/server at the canonical 1000-server size: present in
/// both --ci and full runs, so the reference file can carry one stable
/// memory figure for the CI gate.
std::optional<double> bytes_per_server_1000(
    const std::vector<StepSample>& steps) {
  for (const auto& s : steps) {
    if (s.servers == 1000) return s.bytes_per_server;
  }
  return std::nullopt;
}

/// Fabric-over-flat ratio at the canonical 1000-server size: the flat
/// 1000-server step time over the 10 x 100 fabric step time (same
/// total servers, 1 worker thread).  Present in both --ci and full runs and
/// gated as a ratio so the figure survives CI runners of any speed; a
/// collapse toward zero means the fabric layer's per-interval overhead
/// (mailboxes, ledger, barrier) has blown up relative to the work it wraps.
std::optional<double> fabric_efficiency_1000(
    const std::vector<StepSample>& steps,
    const std::vector<FabricSample>& fabrics) {
  for (const auto& f : fabrics) {
    if (f.shards != 10 || f.servers_per_shard != 100 || f.threads != 1) continue;
    for (const auto& s : steps) {
      if (s.servers == 1000) {
        return s.ms_per_interval / f.ms_per_interval;
      }
    }
  }
  return std::nullopt;
}

/// Per-server scaling ratio from the 1e5 fabric (100 x 1000) to the 1e6
/// fabric (1000 x 1000), both on hardware threads: ms_1e6 / (10 * ms_1e5).
/// 1.0 is perfect linear scaling in fabric size; present only in --full
/// runs, and gated as a ratio so it survives CI runners of any speed.
std::optional<double> fabric_scale_1e6(
    const std::vector<FabricSample>& fabrics) {
  const FabricSample* small = nullptr;
  const FabricSample* big = nullptr;
  for (const auto& f : fabrics) {
    if (f.shards == 100 && f.servers_per_shard == 1000) small = &f;
    if (f.shards == 1000 && f.servers_per_shard == 1000) big = &f;
  }
  if (small == nullptr || big == nullptr || small->ms_per_interval <= 0.0) {
    return std::nullopt;
  }
  return big->ms_per_interval / (10.0 * small->ms_per_interval);
}

std::string json_report(const std::vector<StepSample>& steps,
                        const std::vector<FabricSample>& fabrics,
                        const std::vector<PhaseSample>& phases,
                        bool determinism_ok, const QueueSample& queue,
                        const RequestSample& requests,
                        const HysteresisSample& hysteresis) {
  const common::SysInfo sys = common::query_sysinfo();
  std::ostringstream out;
  out.precision(6);
  out << "{\n  \"schema\": \"eclb-perf-2\",\n  \"generated_by\": \"perf_kernel\",\n";
  out << "  \"machine\": {\"os\": \"" << sys.os << "\", \"release\": \""
      << sys.release << "\", \"machine\": \"" << sys.machine
      << "\", \"compiler\": \"" << sys.compiler << "\", \"cpus\": " << sys.cpus
      << ", \"assertions\": " << (sys.assertions ? "true" : "false") << "},\n";
  out << "  \"cluster_step\": [\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto& s = steps[i];
    out << "    {\"servers\": " << s.servers << ", \"intervals\": "
        << s.intervals << ", \"ms_per_interval\": " << s.ms_per_interval
        << ", \"bytes_per_server\": " << s.bytes_per_server << "}"
        << (i + 1 < steps.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"fabric_step\": [\n";
  for (std::size_t i = 0; i < fabrics.size(); ++i) {
    const auto& f = fabrics[i];
    out << "    {\"shards\": " << f.shards << ", \"servers_per_shard\": "
        << f.servers_per_shard << ", \"total_servers\": "
        << f.shards * f.servers_per_shard << ", \"threads\": " << f.threads
        << ", \"resolved_threads\": " << f.resolved_threads
        << ", \"intervals\": " << f.intervals << ", \"ms_per_interval\": "
        << f.ms_per_interval << "}" << (i + 1 < fabrics.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n";
  if (!phases.empty()) {
    out << "  \"pipeline_phases\": [\n";
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const auto& p = phases[i];
      out << "    {\"servers\": " << p.servers << ", \"intervals\": "
          << p.intervals << ", \"classify_ms\": " << p.classify_ms
          << ", \"diff_ms\": " << p.diff_ms << ", \"refile_ms\": "
          << p.refile_ms << ", \"protocol_ms\": " << p.protocol_ms
          << ", \"dirty_per_interval\": " << p.dirty_per_interval
          << ", \"refiles_per_interval\": " << p.refiles_per_interval
          << ", \"runs_per_interval\": " << p.runs_per_interval << "}"
          << (i + 1 < phases.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
  }
  out << "  \"fabric_determinism\": "
      << (determinism_ok ? "true" : "false") << ",\n";
  if (const auto scale = fabric_scale_1e6(fabrics); scale.has_value()) {
    out << "  \"fabric_scale_1e6\": " << *scale << ",\n";
  }
  if (const auto eff = fabric_efficiency_1000(steps, fabrics);
      eff.has_value()) {
    out << "  \"fabric_efficiency_1000\": " << *eff << ",\n";
  }
  if (const auto bps = bytes_per_server_1000(steps); bps.has_value()) {
    out << "  \"bytes_per_server_1000\": " << *bps << ",\n";
  }
  out << "  \"event_queue\": {\"events\": " << queue.events
      << ", \"ns_per_event\": " << queue.ns_per_event
      << ", \"allocs_per_event\": " << queue.allocs_per_event << "},\n";
  out << "  \"request_engine\": {\"requests\": " << requests.requests
      << ", \"requests_per_sec\": " << requests.requests_per_sec << "},\n";
  out << "  \"hysteresis\": {\"wake_sleep_flaps_raw\": "
      << hysteresis.flaps_raw << ", \"wake_sleep_flaps_damped\": "
      << hysteresis.flaps_damped << "}\n}\n";
  return out.str();
}

/// Pulls `"key": <number>` pairs out of the flat reference JSON.  The file
/// is generated by this tool, so a line-oriented scan is sufficient -- no
/// JSON library in the container.
std::optional<double> json_number(const std::string& text,
                                  const std::string& key) {
  const auto at = text.find("\"" + key + "\"");
  if (at == std::string::npos) return std::nullopt;
  const auto colon = text.find(':', at);
  if (colon == std::string::npos) return std::nullopt;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

int check_against_reference(const std::string& ref_path,
                            const std::vector<StepSample>& steps,
                            const std::vector<FabricSample>& fabrics,
                            bool determinism_ok, const QueueSample& queue,
                            const RequestSample& requests,
                            const HysteresisSample& hysteresis) {
  std::ifstream in(ref_path);
  if (!in) {
    std::fprintf(stderr, "cannot read reference %s\n", ref_path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string ref = buf.str();
  int failures = 0;

  // Memory gate: the SoA data plane's bytes/server at 1000 servers
  // must stay within 1.5x of the recorded footprint.  Catches regressions
  // like per-server heap churn sneaking back into the index or recorder.
  const auto ref_bps = json_number(ref, "bytes_per_server_1000");
  const auto measured_bps = bytes_per_server_1000(steps);
  if (ref_bps.has_value() && measured_bps.has_value()) {
    const double gate = *ref_bps * 1.5;
    if (*measured_bps > gate) {
      std::fprintf(stderr,
                   "FAIL: bytes/server at 1000 servers grew: "
                   "measured %.0f, reference %.0f (gate %.0f)\n",
                   *measured_bps, *ref_bps, gate);
      ++failures;
    } else {
      std::printf("ok: bytes/server at 1000 servers %.0f (reference %.0f)\n",
                  *measured_bps, *ref_bps);
    }
  }

  // Fabric gates: the barrier protocol must replay bit-identically across
  // thread counts (hard fail, no reference needed), and the fabric layer's
  // per-interval overhead at the canonical 1000-server size must stay
  // within 2x of the recorded flat-over-fabric ratio.
  if (!determinism_ok) {
    std::fprintf(stderr,
                 "FAIL: fabric replay diverged between 1 and 2 threads\n");
    ++failures;
  } else {
    std::printf("ok: fabric replay bit-identical at 1 vs 2 threads\n");
  }
  const auto ref_eff = json_number(ref, "fabric_efficiency_1000");
  const auto measured_eff = fabric_efficiency_1000(steps, fabrics);
  if (ref_eff.has_value() && measured_eff.has_value()) {
    const double gate = *ref_eff / 2.0;
    if (*measured_eff < gate) {
      std::fprintf(stderr,
                   "FAIL: fabric efficiency at 1000 servers regressed: "
                   "measured %.2f, reference %.2f (gate %.2f)\n",
                   *measured_eff, *ref_eff, gate);
      ++failures;
    } else {
      std::printf("ok: fabric efficiency at 1000 servers %.2f (reference %.2f)\n",
                  *measured_eff, *ref_eff);
    }
  }

  // 1e6 fabric gate, active only when this run measured the --full row:
  // per-server scaling from the 1e5 fabric to the 1e6 fabric must stay
  // within 2x of the recorded ratio.  Catches superlinear blowup (barrier
  // overhead, allocator contention) that the smaller rows cannot see.
  const auto ref_scale = json_number(ref, "fabric_scale_1e6");
  const auto measured_scale = fabric_scale_1e6(fabrics);
  if (ref_scale.has_value() && measured_scale.has_value()) {
    const double gate = *ref_scale * 2.0;
    if (*measured_scale > gate) {
      std::fprintf(stderr,
                   "FAIL: 1e6 fabric scaling regressed: measured %.2f, "
                   "reference %.2f (gate %.2f)\n",
                   *measured_scale, *ref_scale, gate);
      ++failures;
    } else {
      std::printf("ok: 1e6 fabric scaling %.2f (reference %.2f)\n",
                  *measured_scale, *ref_scale);
    }
  }

  // Request engine gate: arrival generation throughput must stay within 2x
  // of the recorded figure -- catches per-request allocation or an O(n^2)
  // slip in the thinning/sampling loop.
  const auto ref_rps = json_number(ref, "requests_per_sec");
  if (ref_rps.has_value()) {
    const double gate = *ref_rps / 2.0;
    if (requests.requests_per_sec < gate) {
      std::fprintf(stderr,
                   "FAIL: request engine throughput regressed: "
                   "measured %.0f req/s, reference %.0f (gate %.0f)\n",
                   requests.requests_per_sec, *ref_rps, gate);
      ++failures;
    } else {
      std::printf("ok: request engine %.0f req/s (reference %.0f)\n",
                  requests.requests_per_sec, *ref_rps);
    }
  }

  // Hysteresis gate: flap counts are deterministic simulation facts, so the
  // comparison is exact.  Hysteresis must never flap *more* than the raw
  // protocol, and the damped count must not grow past the recorded value
  // (more flaps = the dwell/margin guards stopped biting).
  if (hysteresis.flaps_damped > hysteresis.flaps_raw) {
    std::fprintf(stderr,
                 "FAIL: hysteresis flaps %zu exceed the raw protocol's %zu\n",
                 hysteresis.flaps_damped, hysteresis.flaps_raw);
    ++failures;
  }
  const auto ref_flaps = json_number(ref, "wake_sleep_flaps_damped");
  if (ref_flaps.has_value()) {
    if (static_cast<double>(hysteresis.flaps_damped) > *ref_flaps) {
      std::fprintf(stderr,
                   "FAIL: wake_sleep_flaps under hysteresis grew: "
                   "measured %zu, reference %.0f\n",
                   hysteresis.flaps_damped, *ref_flaps);
      ++failures;
    } else {
      std::printf("ok: wake_sleep_flaps %zu damped / %zu raw "
                  "(reference %.0f)\n",
                  hysteresis.flaps_damped, hysteresis.flaps_raw, *ref_flaps);
    }
  }

  const auto ref_allocs = json_number(ref, "allocs_per_event");
  if (ref_allocs.has_value() && queue.allocs_per_event > *ref_allocs) {
    std::fprintf(stderr,
                 "FAIL: event queue allocates %.4f per event "
                 "(reference %.4f)\n",
                 queue.allocs_per_event, *ref_allocs);
    ++failures;
  } else {
    std::printf("ok: event queue allocs/event %.4f\n", queue.allocs_per_event);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = common::Flags::parse(argc, argv);
  const auto bad = flags.unknown({"ci", "tiny", "full", "out", "check", "phases"});
  if (!bad.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.front().c_str());
    return 2;
  }
  const bool tiny = flags.get_bool("tiny");
  const bool ci = tiny || flags.get_bool("ci");
  const bool full = !tiny && flags.get_bool("full");
  const bool phases_on = flags.get_bool("phases");
  const std::string out_path = flags.get("out", "BENCH_perf.json");

  std::vector<std::size_t> sizes{100};
  if (!tiny) sizes.push_back(1000);
  if (!ci) sizes.push_back(10000);

  // The whole point of the index: 1e5 servers is interactive.
  if (!ci) sizes.push_back(100000);
  std::vector<StepSample> steps;
  for (const auto n : sizes) {
    std::printf("cluster step: %zu servers...\n", n);
    std::fflush(stdout);
    steps.push_back(time_cluster_step(n));
    std::printf("  %.3f ms/interval\n", steps.back().ms_per_interval);
  }

  // Fabric sweep: 10 x 100 at 1 thread anchors the efficiency gate in every
  // run; the larger fabrics are the scale figures this tier exists for.
  std::vector<FabricSample> fabrics;
  // Tiny mode shrinks the anchor fabric but keeps the same shape, so the
  // whole fabric path (mailboxes, barrier, digesting) still runs.
  const std::size_t anchor_servers = tiny ? 10 : 100;
  std::printf("fabric step: 10 x %zu servers, 1 thread...\n", anchor_servers);
  std::fflush(stdout);
  fabrics.push_back(time_fabric_step(10, anchor_servers, 1));
  std::printf("  %.3f ms/interval\n", fabrics.back().ms_per_interval);
  if (!ci) {
    // The fabric's scale point: 1e5 servers as 100 shards, stepped on
    // hardware threads (0 = hardware concurrency).
    std::printf("fabric step: 100 x 1000 servers, hardware threads...\n");
    std::fflush(stdout);
    fabrics.push_back(time_fabric_step(100, 1000, 0));
    std::printf("  %.3f ms/interval\n", fabrics.back().ms_per_interval);
    if (full) {
      std::printf("fabric step: 1000 x 1000 servers, hardware threads...\n");
      std::fflush(stdout);
      fabrics.push_back(time_fabric_step(1000, 1000, 0));
      std::printf("  %.3f ms/interval\n", fabrics.back().ms_per_interval);
    }
  }
  std::printf("fabric determinism: 1 vs 2 threads...\n");
  std::fflush(stdout);
  const bool determinism_ok = fabric_determinism_ok();
  std::printf("  %s\n", determinism_ok ? "bit-identical" : "DIVERGED");

  // Phase breakdown at the largest flat size of the run: where the split
  // between classification, diff, refile and protocol work is most honest.
  std::vector<PhaseSample> phases;
  if (phases_on) {
    const std::size_t n = ci ? sizes.back() : 100000;
    std::printf("pipeline phases: %zu servers...\n", n);
    std::fflush(stdout);
    phases.push_back(time_pipeline_phases(n));
    const auto& p = phases.back();
    std::printf(
        "  classify %.3f + diff %.3f + refile %.3f + protocol %.3f "
        "ms/interval (%.0f dirty, %.0f refiles in %.0f runs)\n",
        p.classify_ms, p.diff_ms, p.refile_ms, p.protocol_ms,
        p.dirty_per_interval, p.refiles_per_interval, p.runs_per_interval);
  }

  std::printf("event queue: steady-state push/pop...\n");
  std::fflush(stdout);
  const QueueSample queue = time_event_queue(tiny ? 5000 : ci ? 20000 : 100000);
  std::printf("  %.1f ns/event, %.4f allocs/event\n", queue.ns_per_event,
              queue.allocs_per_event);

  std::printf("request engine: open-loop arrival generation...\n");
  std::fflush(stdout);
  const RequestSample requests =
      time_request_engine(tiny ? 50000 : ci ? 200000 : 1000000);
  std::printf("  %.0f requests/s\n", requests.requests_per_sec);

  std::printf("hysteresis: flash overload, flap count off vs on...\n");
  std::fflush(stdout);
  const HysteresisSample hysteresis = measure_hysteresis();
  std::printf("  %zu flaps raw, %zu damped\n", hysteresis.flaps_raw,
              hysteresis.flaps_damped);

  const std::string report = json_report(steps, fabrics, phases,
                                         determinism_ok, queue, requests,
                                         hysteresis);
  std::ofstream out(out_path);
  out << report;
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (flags.has("check")) {
    return check_against_reference(flags.get("check"), steps, fabrics,
                                   determinism_ok, queue, requests,
                                   hysteresis);
  }
  return determinism_ok ? 0 : 1;
}
