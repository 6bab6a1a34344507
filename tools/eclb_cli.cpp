// eclb_cli -- command-line front end for the simulator.
//
// Subcommands:
//   cluster   run the Section 4/5 cluster protocol and print per-interval CSV
//   farm      run a Section 3 capacity policy on a synthetic workload
//   migrate   price one live migration (questions 5-8 of Section 3)
//   model     evaluate the homogeneous model (Eqs. 6-13)
//
// Examples:
//   eclb_cli cluster --servers 1000 --load 30 --intervals 40 --seed 7
//   eclb_cli farm --policy autoscale --workload spiky --servers 100
//   eclb_cli migrate --ram 4096 --dirty 200 --bandwidth 1000
//   eclb_cli model --a-avg 0.3 --b-avg 0.6 --a-opt 0.9 --b-opt 0.8
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "analytic/homogeneous_model.h"
#include "cluster/fabric.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/sysinfo.h"
#include "experiment/request_driver.h"
#include "experiment/scenario.h"
#include "fault/injector.h"
#include "obs/observer.h"
#include "policy/farm.h"
#include "policy/policies.h"
#include "vm/migration.h"
#include "workload/profile.h"
#include "workload/trace.h"
#include "workload/trace_io.h"

namespace {

using namespace eclb;

int usage() {
  std::cerr <<
      "usage: eclb_cli <command> [flags]\n"
      "\n"
      "commands:\n"
      "  cluster   --servers N --load 30|70 --intervals K --seed S [--tau SEC]\n"
      "            [--no-sleep] [--no-rebalance]\n"
      "            [--faults SPEC]\n"
      "            [--shards M] [--fabric-threads T]\n"
      "            [--trace DIR] [--metrics FILE] [--profile] [--mem-stats]\n"
      "            runs the energy-aware protocol, prints per-interval CSV;\n"
      "            --shards M (default 1, a plain cluster) splits --servers\n"
      "            evenly across M shards of a sharded fabric, stepped on T\n"
      "            threads, this one included (default 1; 0 = hardware;\n"
      "            any T is bit-identical), with faults injected and traces\n"
      "            written per shard and offloaded/unplaced CSV columns\n"
      "            added;\n"
      "            --trace writes a JSONL protocol trace into DIR, --metrics\n"
      "            writes aggregated counters as JSON, --profile prints a\n"
      "            wall-clock phase table and the build time to stderr,\n"
      "            --mem-stats prints peak\n"
      "            RSS and the data-plane memory breakdown (state table,\n"
      "            regime index, per-server bytes; summed over shards) plus\n"
      "            the notification pipeline counters; --faults injects a\n"
      "            deterministic fault schedule, e.g.\n"
      "            \"leader@1200;loss@0:p=0.05;crash@600:s=3;seed=9\" or\n"
      "            \"part@600:g=0-49|50-99,heal=1800\"\n"
      "            (kinds: crash recover leader loss delay migfail derate\n"
      "            part heal; params: seed hb miss retries backoff cap);\n"
      "            [--requests SPEC] drives demand from a request-level\n"
      "            workload instead of the stochastic evolution, e.g.\n"
      "            \"poisson:rate=200;flash:rate=50,burst=8;seed=7\"\n"
      "            (streams: poisson:rate=R, diurnal:rate=R[,amp=A,period=S],\n"
      "            flash:rate=R[,burst=M,on=S,off=S],\n"
      "            trace:file=PATH[,scale=F]; options: service=exp|lognormal\n"
      "            |pareto, mean=S, sigma=F, alpha=F, sla=SECS; globals:\n"
      "            seed=N, util=F, sla=SECS, admit=none|tail-drop|\n"
      "            deadline-shed, cap=N, budget=SECS, drain=N) and prints an\n"
      "            SLA percentile trailer (p50/p99/p999 sojourns) to stderr;\n"
      "            [--request-trace FILE] is shorthand for appending\n"
      "            \"trace:file=FILE\" to --requests; [--admission P]\n"
      "            [--admission-cap N] [--admission-budget SECS]\n"
      "            [--drain-intervals N] set the spec's admit= (overload\n"
      "            shedding policy), cap= (tail-drop backlog cap), budget=\n"
      "            (deadline-shed wait budget) and drain= (intervals a\n"
      "            migrated VM's backlog drains on its source) and need\n"
      "            --requests; [--hysteresis] enables sleep/wake hysteresis\n"
      "            (dual thresholds + minimum dwell)\n"
      "  farm      --policy always-on|reactive|reactive+extra|autoscale|\n"
      "                     predictive-mw|predictive-lr\n"
      "            --workload diurnal|spiky|walk|constant [--trace FILE]\n"
      "            [--servers N] [--hours H] [--sleep-state C3|C6] [--seed S]\n"
      "            scores a capacity policy (energy, violations)\n"
      "  migrate   --ram MiB --dirty MiBps --bandwidth MiBps [--image MiB]\n"
      "            prices one pre-copy live migration\n"
      "  model     --a-avg X --b-avg X --a-opt X --b-opt X [--n N]\n"
      "            evaluates E_ref/E_opt (Eq. 12)\n";
  return 2;
}

/// Combines --requests / --request-trace into one parsed workload config,
/// then applies --admission, --admission-cap, --admission-budget and
/// --drain-intervals: spellings of the spec's admit=, cap=, budget= and
/// drain= keys that override the spec's own.  Returns 0 when the flags are
/// absent or valid, 2 on a bad one (already reported to stderr).
int parse_request_flags(
    const common::Flags& flags,
    std::optional<workload::engine::RequestWorkloadConfig>* out) {
  std::string spec = flags.get("requests");
  if (flags.has("request-trace")) {
    if (!spec.empty()) spec += ';';
    spec += "trace:file=" + flags.get("request-trace");
  }
  std::string error;
  if (!spec.empty()) {
    *out = workload::engine::RequestWorkloadConfig::parse(spec, &error);
    if (!out->has_value()) {
      std::cerr << "--requests: " << error << "\n";
      return 2;
    }
  }
  for (const auto& [flag, key] : {std::pair{"admission", "admit"},
                                  {"admission-cap", "cap"},
                                  {"admission-budget", "budget"},
                                  {"drain-intervals", "drain"}}) {
    if (!flags.has(flag)) continue;
    if (!out->has_value()) {
      std::cerr << "--admission / --drain-intervals need --requests\n";
      return 2;
    }
    const std::string value = flags.get(flag);
    if (!(*out)->set_global(key, value, &error)) {
      std::cerr << "--" << flag << ": bad value '" << value << "' for "
                << key << "=; " << error << "\n";
      return 2;
    }
  }
  return 0;
}

/// The notification-pipeline trailer for --profile / --mem-stats (stderr).
/// Phase seconds only flow when phase timing was switched on (--profile).
void print_pipeline_stats(const cluster::index::PipelineStats& p, bool timed) {
  std::fprintf(stderr,
               "pipeline: %llu flushes, %llu dirty slots, %llu batch refiles "
               "in %llu bucket runs\n",
               static_cast<unsigned long long>(p.flushes),
               static_cast<unsigned long long>(p.dirty_slots),
               static_cast<unsigned long long>(p.batch_refiles),
               static_cast<unsigned long long>(p.refile_runs));
  if (timed) {
    std::fprintf(stderr,
                 "pipeline: diff %.3f ms, refile %.3f ms\n",
                 1e3 * p.diff_seconds, 1e3 * p.refile_seconds);
  }
}

/// The fault trailer (stderr): resilience counters, plus the partition line
/// when the plan split the fabric.
void print_fault_trailer(const char* label, const fault::ResilienceStats& st) {
  std::cerr << label << ": " << st.crashes << " crashes, " << st.recoveries
            << " recoveries, " << st.failovers << " failovers, "
            << st.dropped_messages << " dropped, " << st.retried_messages
            << " retried, " << st.migration_failures
            << " failed migrations, MTTR " << st.mttr() << " s\n";
  if (st.partitions > 0) {
    std::cerr << "partitions: " << st.partitions << " splits, " << st.heals
              << " heals, " << st.fenced_commands << " fenced commands, "
              << st.shadow_restarts << " shadow restarts, "
              << st.duplicates_resolved << " duplicates resolved, "
              << st.orphans_adopted << " orphans adopted, heal convergence "
              << (st.heal_convergence.count() > 0 ? st.heal_convergence.mean()
                                                  : 0.0)
              << " s\n";
  }
}

/// Data-plane memory summed over the fabric's shards.
cluster::ClusterMemoryStats fabric_memory_stats(const cluster::Fabric& fabric) {
  cluster::ClusterMemoryStats sum;
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    const cluster::ClusterMemoryStats m = fabric.cluster(i).memory_stats();
    sum.state_table_bytes += m.state_table_bytes;
    sum.index_bytes += m.index_bytes;
    sum.server_objects_bytes += m.server_objects_bytes;
    sum.vm_storage_bytes += m.vm_storage_bytes;
    sum.total_bytes += m.total_bytes;
  }
  sum.bytes_per_server = static_cast<double>(sum.total_bytes) /
                         static_cast<double>(fabric.total_servers());
  return sum;
}

/// Writes --metrics (with the pipeline.* counters) to `metrics_out`, the
/// file opened before the run (null without --metrics), then prints the
/// --profile and --mem-stats trailers (stderr).  Returns 2 when the metrics
/// file cannot be written.
int finish_observability(const cluster::Fabric& fabric,
                         obs::MetricsRegistry& registry,
                         std::ofstream* metrics_out,
                         const obs::Profiler* profiler, bool mem_stats) {
  const cluster::index::PipelineStats p = fabric.pipeline_stats();
  if (metrics_out != nullptr) {
    registry.counter("pipeline.flushes").inc(p.flushes);
    registry.counter("pipeline.dirty_slots").inc(p.dirty_slots);
    registry.counter("pipeline.batch_refiles").inc(p.batch_refiles);
    registry.counter("pipeline.refile_runs").inc(p.refile_runs);
    registry.write_json(*metrics_out);
    if (!metrics_out->flush()) {
      std::cerr << "could not write metrics file\n";
      return 2;
    }
  }
  if (profiler != nullptr) {
    profiler->write(std::cerr);
    print_pipeline_stats(p, /*timed=*/true);
  }
  if (mem_stats) {
    const cluster::ClusterMemoryStats m = fabric_memory_stats(fabric);
    std::cerr << "memory: state table " << m.state_table_bytes
              << " B, regime index " << m.index_bytes << " B, server objects "
              << m.server_objects_bytes << " B, vm storage "
              << m.vm_storage_bytes << " B\n"
              << "memory: total " << m.total_bytes << " B ("
              << m.bytes_per_server << " B/server)";
    if (const auto rss = common::peak_rss_bytes(); rss > 0) {
      std::cerr << ", peak RSS " << rss << " B";
    }
    std::cerr << "\n";
    // --profile already printed the (timed) pipeline trailer above.
    if (profiler == nullptr) print_pipeline_stats(p, false);
  }
  return 0;
}

/// The end-of-run SLA trailer (stderr, like the energy summary).
void print_sla_trailer(const experiment::SlaSummary& s) {
  std::fprintf(stderr,
               "requests: %llu arrived, %llu completed, %llu dropped, %llu "
               "SLA violations, backlog %.3f cap-s\n",
               static_cast<unsigned long long>(s.arrived),
               static_cast<unsigned long long>(s.completed),
               static_cast<unsigned long long>(s.dropped),
               static_cast<unsigned long long>(s.sla_violations), s.backlog);
  // Resilience counters only print when nonzero, so a run without admission
  // control or host crashes keeps the legacy two-line trailer byte-for-byte.
  if (s.shed != 0 || s.failed_by_fault != 0) {
    std::fprintf(stderr, "requests: %llu shed (admission), %llu failed by "
                 "fault\n",
                 static_cast<unsigned long long>(s.shed),
                 static_cast<unsigned long long>(s.failed_by_fault));
  }
  std::fprintf(stderr, "sojourn: p50 %.6f s, p99 %.6f s, p999 %.6f s\n", s.p50,
               s.p99, s.p999);
}

/// Prints every malformed flag value the typed getters met.  False when
/// there was one: a command must not run on the default standing in for it.
bool flags_parsed(const common::Flags& flags) {
  for (const auto& err : flags.errors()) std::cerr << err << "\n";
  return flags.errors().empty();
}

/// Reads a flag that must be a whole number >= `min`.  Returns false (after
/// printing a diagnostic) when it is out of range.
bool read_count(common::Flags& flags, const char* name, long long fallback,
                long long min, std::size_t* out) {
  const long long v = flags.get_int(name, fallback);
  if (!flags_parsed(flags)) return false;
  if (v < min) {
    std::cerr << "--" << name << " must be >= " << min << " (got " << v
              << ")\n";
    return false;
  }
  *out = static_cast<std::size_t>(v);
  return true;
}

/// The cluster command: a Fabric of --shards shards (default 1).  One shard
/// is a plain cluster, so the fabric-only output -- the offloaded/unplaced
/// CSV columns, the `fabric:` line and per-shard trace names -- appears only
/// from two shards on.
int cmd_cluster(common::Flags& flags) {
  std::size_t servers = 0;
  std::size_t intervals = 0;
  std::size_t shards = 0;
  std::size_t threads = 0;
  if (!read_count(flags, "servers", 100, 1, &servers) ||
      !read_count(flags, "intervals", 40, 0, &intervals) ||
      !read_count(flags, "shards", 1, 1, &shards) ||
      !read_count(flags, "fabric-threads", 1, 0, &threads)) {
    return 2;
  }
  const double tau = flags.get_double("tau", 60.0);
  if (tau <= 0.0) {
    std::cerr << "--tau must be a positive number of seconds (got " << tau
              << ")\n";
    return 2;
  }
  const bool sharded = shards > 1;
  if (servers % shards != 0) {
    std::cerr << "--servers (" << servers << ") must be a positive multiple"
              << " of --shards (" << shards << ")\n";
    return 2;
  }
  // A shard's server ids must stay below the 32-bit invalid id.
  if (servers / shards >= common::ServerId::kInvalid) {
    std::cerr << "--servers / --shards must be below "
              << common::ServerId::kInvalid << " servers per shard (got "
              << servers / shards << ")\n";
    return 2;
  }
  const long long load = flags.get_int("load", 30);
  if (load != 30 && load != 70) {
    std::cerr << "--load must be 30 or 70 (got " << load << ")\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  cluster::FabricConfig fcfg;
  fcfg.shard_count = shards;
  fcfg.threads = threads;
  cluster::ClusterConfig& cfg = fcfg.cluster_template;
  cfg = experiment::paper_cluster_config(
      servers / shards,
      load == 70 ? experiment::AverageLoad::kHigh70
                 : experiment::AverageLoad::kLow30,
      seed);
  cfg.reallocation_interval = common::Seconds{tau};
  if (flags.get_bool("no-sleep")) cfg.allow_sleep = false;
  if (flags.get_bool("no-rebalance")) cfg.rebalance_enabled = false;

  std::optional<fault::FaultPlan> plan;
  if (flags.has("faults")) {
    std::string error;
    plan = fault::FaultPlan::parse(flags.get("faults"), &error);
    if (!plan.has_value() || !plan->check_servers(servers / shards, &error)) {
      std::cerr << "--faults: " << error << "\n";
      return 2;
    }
  }

  std::optional<workload::engine::RequestWorkloadConfig> requests;
  if (const int rc = parse_request_flags(flags, &requests); rc != 0) return rc;
  if (flags.get_bool("hysteresis")) cfg.hysteresis.enabled = true;
  if (requests.has_value()) cfg.demand_evolution_enabled = false;
  const bool profile = flags.get_bool("profile");
  const bool mem_stats = flags.get_bool("mem-stats");
  if (!flags_parsed(flags)) return 2;

  obs::MetricsRegistry registry;
  obs::Profiler profiler;
  obs::ObsConfig obs_cfg;
  obs_cfg.trace_dir = flags.get("trace");
  // The metrics file is opened before the run, so an unwritable path fails
  // fast instead of after the whole simulation.
  const std::string metrics_file = flags.get("metrics");
  std::ofstream metrics_out;
  if (!metrics_file.empty()) {
    metrics_out.open(metrics_file);
    if (!metrics_out.is_open()) {
      std::cerr << "could not open metrics file: " << metrics_file << "\n";
      return 2;
    }
    obs_cfg.metrics = &registry;
  }
  if (profile) obs_cfg.profiler = &profiler;

  const auto build_start = std::chrono::steady_clock::now();
  cluster::Fabric fabric(fcfg);
  if (profile) fabric.set_pipeline_phase_timing(true);
  std::optional<fault::FabricFaultSession> faults;
  if (plan.has_value()) faults.emplace(fabric, *plan);
  std::optional<experiment::FabricRequestSession> session;
  if (requests.has_value()) {
    session.emplace(fabric, *requests);
    if (!session->ok()) {
      std::cerr << "--requests: " << session->error() << "\n";
      return 2;
    }
  }
  const std::chrono::duration<double, std::milli> build_ms =
      std::chrono::steady_clock::now() - build_start;

  // One probe per shard: traces split per shard file; each shard counts
  // into its own registry, merged in shard order after the run.
  std::vector<obs::MetricsRegistry> shard_metrics(fabric.size());
  std::vector<std::unique_ptr<obs::ClusterProbe>> probes;
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    obs::ObsConfig shard_cfg = obs_cfg;
    if (shard_cfg.metrics != nullptr) shard_cfg.metrics = &shard_metrics[i];
    auto probe = sharded ? obs::ClusterProbe::make_shard(shard_cfg, seed, i)
                         : obs::ClusterProbe::make(shard_cfg, seed,
                                                   /*replication=*/0);
    if (probe == nullptr) break;
    if (probe->trace() != nullptr && !probe->trace()->ok()) {
      std::cerr << "could not open trace file: " << probe->trace()->path()
                << "\n";
      return 2;
    }
    fabric.mutable_cluster(i).attach_observer(probe.get());
    probes.push_back(std::move(probe));
  }

  std::vector<std::string> header = {
      "interval", "local", "in_cluster", "ratio", "migrations", "sleeps",
      "wakes", "parked", "deep_sleeping", "sla_violations", "energy_kwh"};
  if (sharded) header.insert(header.end() - 1, {"offloaded", "unplaced"});
  common::CsvWriter csv(std::cout, header);
  auto count = [](std::size_t v) {
    return common::CsvWriter::cell(static_cast<long long>(v));
  };
  for (std::size_t i = 0; i < intervals; ++i) {
    if (session.has_value()) session->advance_interval();
    const auto r = fabric.step();
    std::size_t migrations = 0;
    std::size_t sleeps = 0;
    std::size_t wakes = 0;
    std::size_t parked = 0;
    for (const auto& c : r.clusters) {
      migrations += c.migrations;
      sleeps += c.sleeps;
      wakes += c.wakes;
      parked += c.parked_servers;
    }
    const std::size_t local = r.total_local();
    const std::size_t in_cluster = r.total_in_cluster();
    std::vector<std::string> row = {
        count(i), count(local), count(in_cluster),
        common::CsvWriter::cell(static_cast<double>(in_cluster) /
                                static_cast<double>(local == 0 ? 1 : local)),
        count(migrations), count(sleeps), count(wakes), count(parked),
        count(r.total_deep_sleeping()), count(r.total_sla_violations()),
        common::CsvWriter::cell(r.total_energy().kwh())};
    if (sharded) {
      row.insert(row.end() - 1, {count(r.inter_cluster_placements),
                                 count(r.unplaced_overflows)});
    }
    csv.row(row);
  }

  std::size_t messages = 0;
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    messages += fabric.cluster(i).message_stats().total();
  }
  if (sharded) {
    const std::size_t used = fabric.resolved_threads();
    std::cerr << "fabric: " << shards << " shards x " << servers / shards
              << " servers, " << used << " thread" << (used == 1 ? "" : "s")
              << "\n";
  }
  std::cerr << "total energy: " << fabric.total_energy().kwh() << " kWh, "
            << messages << " control messages\n";
  if (faults.has_value()) {
    print_fault_trailer(sharded ? "resilience (all shards)" : "resilience",
                        faults->combined_stats());
  }
  if (session.has_value()) print_sla_trailer(session->summary());
  if (profile) std::cerr << "build: " << build_ms.count() << " ms\n";
  for (const auto& probe : probes) {
    if (probe->trace() != nullptr) {
      std::cerr << "trace: " << probe->trace()->path() << "\n";
    }
  }
  for (const obs::MetricsRegistry& m : shard_metrics) registry.merge(m);
  return finish_observability(fabric, registry,
                              metrics_file.empty() ? nullptr : &metrics_out,
                              obs_cfg.profiler, mem_stats);
}

std::unique_ptr<policy::CapacityPolicy> make_policy(const std::string& name) {
  for (auto& p : policy::standard_policies()) {
    if (p->name() == name) return std::move(p);
  }
  return nullptr;
}

int cmd_farm(common::Flags& flags) {
  const std::string policy_name = flags.get("policy", "reactive");
  auto policy = make_policy(policy_name);
  if (policy == nullptr) {
    std::cerr << "unknown policy: " << policy_name << "\n";
    return 2;
  }
  std::size_t servers = 0;
  if (!read_count(flags, "servers", 100, 1, &servers)) return 2;
  const double hours = flags.get_double("hours", 24.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  if (!flags_parsed(flags)) return 2;
  // The workload is sampled once a minute, so the horizon sizes the trace;
  // a year (525,600 samples) is the longest run accepted.
  constexpr double kMaxHours = 8760.0;
  if (!(hours > 0.0 && hours <= kMaxHours)) {
    std::cerr << "--hours must be in (0, " << kMaxHours << "] (got " << hours
              << ")\n";
    return 2;
  }
  const std::string sleep = flags.get("sleep-state", "C6");
  if (sleep != "C3" && sleep != "C6") {
    std::cerr << "--sleep-state must be C3 or C6 (got '" << sleep << "')\n";
    return 2;
  }
  const common::Seconds horizon{hours * 3600.0};

  workload::Trace trace(common::Seconds{60.0});
  const std::string trace_file = flags.get("trace");
  if (!trace_file.empty()) {
    auto loaded = workload::load_trace_file(trace_file);
    if (!loaded.has_value()) {
      std::cerr << "could not load trace: " << trace_file << "\n";
      return 2;
    }
    trace = std::move(*loaded);
  } else {
    common::Rng rng(seed);
    const std::string kind = flags.get("workload", "diurnal");
    const double scale = static_cast<double>(servers);
    std::shared_ptr<const workload::Profile> profile;
    if (kind == "diurnal") {
      profile = std::make_shared<workload::DiurnalProfile>(
          0.45 * scale, 0.30 * scale, common::Seconds{24.0 * 3600.0});
    } else if (kind == "spiky") {
      workload::SpikyProfile::Params sp;
      sp.base = 0.25 * scale;
      sp.spike_min = 0.15 * scale;
      sp.spike_max = 0.45 * scale;
      sp.horizon = horizon;
      profile = std::make_shared<workload::SpikyProfile>(sp, rng);
    } else if (kind == "walk") {
      workload::RandomWalkProfile::Params rw;
      rw.start = 0.4 * scale;
      rw.max_step = 0.012 * scale;
      rw.ceiling = 0.8 * scale;
      rw.horizon = horizon;
      profile = std::make_shared<workload::RandomWalkProfile>(rw, rng);
    } else if (kind == "constant") {
      profile = std::make_shared<workload::ConstantProfile>(0.4 * scale);
    } else {
      std::cerr << "unknown workload: " << kind << "\n";
      return 2;
    }
    trace = workload::sample(*profile, common::Seconds{60.0}, horizon);
  }

  policy::FarmConfig fc;
  fc.server_count = servers;
  fc.sleep_state = sleep == "C3" ? energy::CState::kC3 : energy::CState::kC6;
  const auto result = policy::FarmSimulator(fc).run(*policy, trace);

  std::printf("policy:          %s\n", result.policy_name.c_str());
  std::printf("steps:           %zu (%.1f h)\n", result.steps,
              static_cast<double>(result.steps) / 60.0);
  std::printf("energy:          %.1f kWh (always-on: %.1f kWh, saving %.1f%%)\n",
              result.energy.kwh(), result.always_on_energy.kwh(),
              100.0 * result.energy_saving());
  std::printf("violations:      %zu steps (%.2f%%), unserved %.1f\n",
              result.violation_steps, 100.0 * result.violation_rate(),
              result.unserved_demand);
  std::printf("avg awake:       %.1f / %zu\n", result.average_awake, servers);
  std::printf("transitions:     %zu wakes, %zu sleeps\n", result.wake_transitions,
              result.sleep_transitions);
  return 0;
}

int cmd_migrate(common::Flags& flags) {
  vm::VmSpec spec;
  spec.ram = common::MiB{flags.get_double("ram", 2048.0)};
  spec.dirty_rate = common::MiBps{flags.get_double("dirty", 40.0)};
  spec.image_size = common::MiB{flags.get_double("image", 4096.0)};
  vm::MigrationEnvironment env;
  env.bandwidth = common::MiBps{flags.get_double("bandwidth", 1000.0)};
  if (!flags_parsed(flags)) return 2;
  if (!(spec.ram.value > 0.0 && env.bandwidth.value > 0.0 &&
        spec.dirty_rate.value >= 0.0 && spec.image_size.value >= 0.0)) {
    std::cerr << "--ram and --bandwidth must be positive, --dirty and "
                 "--image non-negative\n";
    return 2;
  }
  const vm::Vm v(common::VmId{1}, common::AppId{1}, 0.2, spec);
  const auto c = vm::migrate_cost(v, env);
  std::printf("pre-copy rounds: %zu (%s)\n", c.rounds,
              c.converged ? "converged" : "hit round cap");
  std::printf("total time:      %.3f s\n", c.total_time.value);
  std::printf("downtime:        %.3f s\n", c.downtime.value);
  std::printf("data moved:      %.0f MiB\n", c.data_transferred.value);
  std::printf("energy:          %.1f J (source %.1f + target %.1f + network %.1f)\n",
              c.total_energy().value, c.source_energy.value, c.target_energy.value,
              c.network_energy.value);
  return 0;
}

int cmd_model(common::Flags& flags) {
  analytic::HomogeneousModel m;
  m.n = static_cast<std::size_t>(flags.get_int("n", 100));
  const double a_avg = flags.get_double("a-avg", 0.3);
  m.a_min = 0.0;
  m.a_max = 2.0 * a_avg;
  m.b_avg = flags.get_double("b-avg", 0.6);
  m.a_opt = flags.get_double("a-opt", 0.9);
  m.b_opt = flags.get_double("b-opt", 0.8);
  if (!flags_parsed(flags)) return 2;
  if (!m.valid()) {
    std::cerr << "invalid model parameters\n";
    return 2;
  }
  std::printf("a_avg=%.3f b_avg=%.3f a_opt=%.3f b_opt=%.3f n=%zu\n", m.a_avg(),
              m.b_avg, m.a_opt, m.b_opt, m.n);
  std::printf("E_ref/E_opt = %.4f (Eq. 12)\n", m.energy_ratio());
  std::printf("energy saving = %.1f%%\n", 100.0 * m.energy_saving());
  std::printf("n_sleep = %.1f of %zu servers (Eq. 11)\n", m.n_sleep(), m.n);
  return 0;
}

/// A subcommand and the flags it reads; any other flag is a typo.
struct Command {
  const char* name;
  int (*run)(common::Flags&);
  std::vector<std::string> flags;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Command commands[] = {
      {"cluster", cmd_cluster,
       {"servers", "load", "intervals", "seed", "tau", "no-sleep",
        "no-rebalance", "faults", "shards", "fabric-threads", "trace",
        "metrics", "profile", "mem-stats", "requests", "request-trace",
        "admission", "admission-cap", "admission-budget", "drain-intervals",
        "hysteresis"}},
      {"farm", cmd_farm,
       {"policy", "workload", "trace", "servers", "hours", "sleep-state",
        "seed"}},
      {"migrate", cmd_migrate, {"ram", "dirty", "bandwidth", "image"}},
      {"model", cmd_model, {"a-avg", "b-avg", "a-opt", "b-opt", "n"}},
  };
  const Command* cmd = nullptr;
  for (const Command& c : commands) {
    if (command == c.name) cmd = &c;
  }
  if (cmd == nullptr) return usage();
  auto flags = common::Flags::parse(argc - 1, argv + 1);
  if (const auto bad = flags.unknown(cmd->flags); !bad.empty()) {
    for (const auto& name : bad) std::cerr << "unknown flag --" << name << "\n";
    return 2;
  }
  if (!flags.positional().empty()) {
    for (const auto& word : flags.positional()) {
      std::cerr << command << ": unexpected argument '" << word << "'\n";
    }
    return 2;
  }
  try {
    return cmd->run(flags);
  } catch (const std::bad_alloc&) {
    std::cerr << command << ": out of memory; try a smaller run\n";
    return 2;
  }
}
