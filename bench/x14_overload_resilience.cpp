// Extension X14: overload resilience -- admission control, migration
// draining and sleep/wake hysteresis under combined fault + flash-crowd
// pressure (src/workload/engine spec knobs + experiment/request_driver +
// cluster hysteresis config).
//
// The sweep pushes a flash-crowd MMPP whose bursts offer several times the
// fleet's capacity, crossed with fault plans (none | crash-heavy | fabric
// partition with heal) and admission policies (none | tail-drop |
// deadline-shed), with sleep/wake hysteresis enabled.  Every cell enforces
// the request-conservation invariant *every interval*: each generated
// request is exactly one of completed / shed / failed-by-fault / dropped /
// still queued -- no request is double-counted or silently lost, even while
// hosts crash mid-drain.  Every cell also runs twice and must be
// bit-identical (admission and drain decisions are pure functions of queue
// state, so determinism survives the new layers).
//
// A hysteresis section replays the overload with hysteresis off vs on and
// reports wake_sleep_flaps -- the dual-threshold + minimum-dwell guard must
// not increase flapping.  A final fabric section replays combined overload
// + faults at worker thread counts {1, 2, 8} ({1, 2} under --tiny) and
// every digest trail must agree.  Every run steps a cluster::Fabric with
// its fault and request sessions (the cells on one shard, a plain
// cluster) and gets both audits: request conservation per interval and
// each shard's self-audit at the end.  Violations exit nonzero so CI can run
// this as a smoke test (`--tiny` shrinks the sweep).
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/fabric.h"
#include "common/table.h"
#include "experiment/request_driver.h"
#include "experiment/scenario.h"
#include "fault/injector.h"

namespace {

using namespace eclb;

bool g_tiny = false;

std::size_t servers() { return g_tiny ? 40 : 100; }
std::size_t intervals() { return g_tiny ? 12 : 40; }

/// Parses a built-in request spec; a parse error is a bug in this bench.
workload::engine::RequestWorkloadConfig parse_spec(const char* spec) {
  std::string error;
  auto parsed = workload::engine::RequestWorkloadConfig::parse(spec, &error);
  if (!parsed.has_value()) {
    std::cerr << "internal spec error: " << error << "\n";
    std::exit(1);
  }
  return *parsed;
}

/// Flash-crowd overload: bursts offer ~4x the fleet's capacity
/// (rate * burst * mean service / n servers), so queues genuinely pile up
/// and admission has real work to do.  Tight 30 s SLA; tail-drop capped at
/// 48 queued requests; deadline-shed uses the stream SLA as its budget.
workload::engine::RequestWorkloadConfig overload_config(
    workload::engine::AdmissionPolicy admission, std::uint32_t drain) {
  const std::string admit(workload::engine::to_string(admission));
  char spec[192];
  std::snprintf(spec, sizeof spec,
                "flash:rate=%.1f,burst=8,on=120,off=480,mean=0.2,sigma=1.2,"
                "sla=30;seed=9;util=0.7;admit=%s;cap=48;drain=%u",
                2.5 * static_cast<double>(servers()), admit.c_str(), drain);
  return parse_spec(spec);
}

/// One named fault plan, sized to the run horizon (tau = 60 s).
fault::FaultPlan make_plan(const std::string& name) {
  fault::FaultPlan plan;
  if (name == "crash-heavy") {
    plan.crash(common::Seconds{120.0}, common::ServerId{3})
        .crash(common::Seconds{180.0}, common::ServerId{11})
        .crash_leader(common::Seconds{240.0})
        .recover(common::Seconds{420.0}, common::ServerId{3})
        .recover(common::Seconds{420.0}, common::ServerId{11})
        .migration_failure_rate(common::Seconds{60.0}, 0.3);
  } else if (name == "partition") {
    // The last fifth of the fleet is cut off from the switch side, healing
    // four intervals later; a lossy fabric rides underneath throughout.
    const std::size_t minority = servers() / 5;
    std::vector<std::vector<common::ServerId>> groups(2);
    for (std::uint64_t i = 0; i < servers(); ++i) {
      groups[i < servers() - minority ? 0 : 1].push_back(common::ServerId{i});
    }
    plan.partition(common::Seconds{120.0}, std::move(groups),
                   common::Seconds{360.0})
        .link_loss(common::Seconds{0.0}, 0.05);
  }
  return plan;
}

struct RunResult {
  double energy_kwh{0.0};
  std::size_t flaps{0};
  std::uint64_t generated{0};
  std::uint64_t queued{0};
  experiment::SlaSummary sla;
  std::string fingerprint;
  std::string conservation_error;  ///< Empty when every audit passed.
};

/// One deterministic run of `rounds` intervals under overload + `plan` on
/// `shards` shards of `servers_per_shard` stepped by `threads` workers.  The
/// sleep guardrail is raised (the paper's floors to zero below 125 servers)
/// so off-phases genuinely sleep servers and bursts recall them -- the
/// oscillation hysteresis exists to damp.  Audits request conservation
/// after every interval and every shard's placement/ledger/index at the
/// end; the fingerprint chains every round's report and SLA digests.
RunResult run(std::size_t shards, std::size_t servers_per_shard,
              std::uint64_t seed, bool hysteresis, std::size_t threads,
              const workload::engine::RequestWorkloadConfig& workload,
              const fault::FaultPlan& plan, std::size_t rounds) {
  auto cfg = experiment::paper_cluster_config(
      servers_per_shard, experiment::AverageLoad::kLow30, seed);
  cfg.demand_evolution_enabled = false;
  cfg.max_sleep_fraction_per_interval = 0.1;
  cfg.hysteresis.enabled = hysteresis;
  cluster::Fabric fabric(cluster::FabricConfig{
      .shard_count = shards, .cluster_template = cfg, .threads = threads});
  fault::FabricFaultSession faults(fabric, plan);
  experiment::FabricRequestSession session(fabric, workload);

  RunResult out;
  std::ostringstream fp;
  for (std::size_t i = 0; i < rounds; ++i) {
    session.advance_interval();
    const auto r = fabric.step();
    for (const auto& c : r.clusters) out.flaps += c.wake_sleep_flaps;
    fp << cluster::fabric_report_digest(r) << ','
       << session.summary().digest() << ',' << out.flaps << ';';
    const auto err = session.audit();
    if (err.has_value() && out.conservation_error.empty()) {
      out.conservation_error = "interval " + std::to_string(i) + ": " + *err;
    }
  }
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    out.queued += session.driver(i).queued();
    const auto err = fabric.cluster(i).self_audit();
    if (err.has_value() && out.conservation_error.empty()) {
      out.conservation_error = "shard " + std::to_string(i) + ": " + *err;
    }
  }
  out.energy_kwh = fabric.total_energy().kwh();
  out.generated = session.total_generated();
  out.sla = session.summary();
  fp << fabric.state_digest();
  out.fingerprint = fp.str();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) g_tiny = true;
  }
  std::cout << "== X14: overload resilience under combined fault + "
               "flash-crowd pressure ==\n\n"
            << servers() << " servers, " << intervals()
            << " intervals, tau = 60 s; flash bursts offer ~4x capacity.\n"
            << "Fault plans: none | crash-heavy (2 members + leader, 30 % "
               "migration\nfailures) | partition (20 % minority, healed) -- "
               "crossed with\nadmission none | tail-drop | deadline-shed; "
               "hysteresis on;\nmigration drain window 2 intervals.\n\n";

  const char* plans[] = {"none", "crash-heavy", "partition"};
  const workload::engine::AdmissionPolicy policies[] = {
      workload::engine::AdmissionPolicy::kNone,
      workload::engine::AdmissionPolicy::kTailDrop,
      workload::engine::AdmissionPolicy::kDeadlineShed,
  };

  // The cells run on one shard -- a plain cluster.
  const auto run_cell =
      [](const workload::engine::RequestWorkloadConfig& workload,
         const fault::FaultPlan& plan, bool hysteresis) {
        return run(1, servers(), 1414, hysteresis, 1, workload, plan,
                   intervals());
      };

  common::TextTable table({"Admission", "Faults", "Generated", "Done", "Shed",
                           "FltFail", "Drop", "Queued", "Viol", "Flaps",
                           "kWh", "Conserved", "Repro"});
  bool all_ok = true;
  for (const char* plan_name : plans) {
    const auto plan = make_plan(plan_name);
    for (const auto policy : policies) {
      const auto workload = overload_config(policy, /*drain=*/2);
      const auto cell = run_cell(workload, plan, /*hysteresis=*/true);
      const auto cell2 = run_cell(workload, plan, /*hysteresis=*/true);
      const bool repro = cell.fingerprint == cell2.fingerprint;
      const bool conserved = cell.conservation_error.empty();
      if (!repro || !conserved) all_ok = false;
      if (!conserved) {
        std::cerr << "conservation violated (" << plan_name << ", "
                  << workload::engine::to_string(policy)
                  << "): " << cell.conservation_error << "\n";
      }
      table.row({std::string(workload::engine::to_string(policy)), plan_name,
                 common::TextTable::num(
                     static_cast<long long>(cell.generated)),
                 common::TextTable::num(
                     static_cast<long long>(cell.sla.completed)),
                 common::TextTable::num(static_cast<long long>(cell.sla.shed)),
                 common::TextTable::num(
                     static_cast<long long>(cell.sla.failed_by_fault)),
                 common::TextTable::num(
                     static_cast<long long>(cell.sla.dropped)),
                 common::TextTable::num(static_cast<long long>(cell.queued)),
                 common::TextTable::num(
                     static_cast<long long>(cell.sla.sla_violations)),
                 common::TextTable::num(static_cast<long long>(cell.flaps)),
                 common::TextTable::num(cell.energy_kwh, 3),
                 conserved ? "yes" : "NO", repro ? "yes" : "NO"});
    }
  }
  table.print(std::cout);

  // Hysteresis ablation: an on/off workload whose idle phases genuinely
  // sleep servers and whose bursts recall them (the saturating overload
  // above never lets anything sleep).  The dual-threshold enter gate plus
  // minimum dwell must not flap *more* than the raw protocol (the metric
  // is measured identically in both runs).
  char idle_spec[160];
  std::snprintf(idle_spec, sizeof idle_spec,
                "flash:rate=%.1f,burst=10,on=60,off=300,mean=0.2,sla=30;"
                "seed=9;util=0.7",
                0.5 * static_cast<double>(servers()));
  const auto idle = parse_spec(idle_spec);
  const auto baseline = run_cell(idle, fault::FaultPlan{},
                                 /*hysteresis=*/false);
  const auto damped = run_cell(idle, fault::FaultPlan{},
                               /*hysteresis=*/true);
  const bool hyst_ok = damped.flaps <= baseline.flaps;
  if (!hyst_ok) all_ok = false;
  std::cout << "\nhysteresis ablation: " << baseline.flaps
            << " flaps raw -> " << damped.flaps << " with hysteresis ("
            << (hyst_ok ? "ok" : "REGRESSION") << ")\n";

  // Thread-count determinism under combined overload + faults: each shard's
  // driver advances on the fabric's pool workers and its injector fires on
  // its own kernel, each touching only its shard, so any worker count must
  // replay the exact digest trail -- and a double run at the reference
  // count must be bit-identical.
  const std::vector<std::size_t> threads =
      g_tiny ? std::vector<std::size_t>{1, 2}
             : std::vector<std::size_t>{1, 2, 8};
  const auto crash_heavy = make_plan("crash-heavy");
  const auto shed = overload_config(
      workload::engine::AdmissionPolicy::kDeadlineShed, /*drain=*/2);
  bool conserved = true;
  const auto sweep = [&](std::size_t t) {
    const auto out = run(g_tiny ? 2 : 4, g_tiny ? 20 : 50, 2020,
                         /*hysteresis=*/true, t, shed, crash_heavy,
                         g_tiny ? 8 : 16);
    if (!out.conservation_error.empty()) conserved = false;
    return out.fingerprint;
  };
  const std::string reference = sweep(threads.front());
  const std::string rerun = sweep(threads.front());
  bool fabric_ok = reference == rerun;
  std::cout << "\nfabric sweep (overload + crash-heavy): double-run "
            << (fabric_ok ? "ok" : "MISMATCH") << "; threads ";
  for (const std::size_t t : threads) {
    const bool same = sweep(t) == reference;
    if (!same) fabric_ok = false;
    std::cout << t << (same ? ":ok " : ":MISMATCH ");
  }
  std::cout << (conserved ? "; conservation ok" : "; CONSERVATION BROKEN")
            << "\n";
  if (!fabric_ok || !conserved) all_ok = false;

  std::cout << "\n"
            << (all_ok ? "all cells conserve requests and replay "
                         "bit-identically"
                       : "VIOLATIONS DETECTED")
            << "\n\nShape check: tail-drop and deadline-shed convert queued\n"
               "work into shed counts and pull the backlog (and SLA\n"
               "violations) down versus open admission; crash plans move\n"
               "stranded requests into the fault-failure column instead of\n"
               "silent drops; hysteresis never reverses more often than the\n"
               "raw protocol (cycles shorter than the dwell are deferred or\n"
               "suppressed; longer ones pass through unchanged).\n";
  return all_ok ? 0 : 1;
}
