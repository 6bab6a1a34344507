// Extension X12: partition tolerance and anti-entropy reconciliation
// (src/cluster membership layer + src/fault partition events).
//
// Sweeps minority-side share x split duration x heal pattern (one split or
// two back-to-back) on the paper's high-load cluster and reports what the
// split costs: shadow restarts on the quorum side, stale commands fenced at
// the epoch boundary, duplicates retired and orphans adopted by the
// anti-entropy pass, and the heal-convergence time (MTTR analogue for the
// fabric).  Every cell is run twice and must be bit-identical; after the
// final heal the membership must hold exactly one leader at the highest
// epoch with a clean placement/ledger/index self-audit.  Any violation
// exits nonzero, so CI can run this as a resilience smoke test (`--tiny`
// shrinks the sweep).
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/fabric.h"
#include "common/table.h"
#include "experiment/scenario.h"
#include "fault/injector.h"

namespace {

using namespace eclb;
using common::Seconds;
using common::ServerId;

bool g_tiny = false;

std::size_t server_count() { return g_tiny ? 40 : 100; }

/// Two groups: the last `minority` servers are cut off from the switch side.
std::vector<std::vector<ServerId>> tail_split(std::size_t servers,
                                              std::size_t minority) {
  std::vector<std::vector<ServerId>> groups(2);
  for (std::uint64_t i = 0; i < servers; ++i) {
    groups[i < servers - minority ? 0 : 1].push_back(ServerId{i});
  }
  return groups;
}

struct CellResult {
  fault::ResilienceStats stats;
  double energy_kwh{0.0};
  std::string fingerprint;
  bool invariants_ok{true};
  std::string violation;
};

/// One deterministic run under `plan` on a 1-shard fabric; fingerprints the
/// per-interval surface and audits the post-heal membership.
CellResult run_cell(const fault::FaultPlan& plan, std::size_t intervals,
                    std::size_t expected_splits) {
  const auto cfg = experiment::paper_cluster_config(
      server_count(), experiment::AverageLoad::kHigh70, 404);
  cluster::Fabric fabric(
      cluster::FabricConfig{.shard_count = 1, .cluster_template = cfg});
  fault::FabricFaultSession faults(fabric, plan);
  const cluster::Cluster& c = fabric.cluster(0);
  std::ostringstream fp;
  for (std::size_t i = 0; i < intervals; ++i) {
    const auto r = std::move(fabric.step().clusters[0]);
    fp << r.local_decisions << ',' << r.in_cluster_decisions << ','
       << r.migrations << ',' << r.sleeps << ',' << r.wakes << ','
       << r.sla_violations << ',' << r.fenced_commands << ','
       << r.shadow_starts << ',' << r.interval_energy.value << ';';
  }
  fp << c.total_energy().value << ';' << c.membership().highest_epoch();

  CellResult out;
  out.stats = faults.combined_stats();
  out.energy_kwh = c.total_energy().kwh();
  out.fingerprint = fp.str();

  const auto fail = [&out](const std::string& what) {
    out.invariants_ok = false;
    if (!out.violation.empty()) out.violation += "; ";
    out.violation += what;
  };
  const auto& m = c.membership();
  if (m.partitioned()) fail("still partitioned after final heal");
  if (c.reconcile_pending()) fail("reconcile still pending");
  if (m.side_count() != 1) fail("more than one membership side");
  if (m.side_count() >= 1) {
    if (!m.side(0).leader.valid()) fail("no leader after heal");
    if (m.side(0).epoch != m.highest_epoch()) {
      fail("leader not at highest epoch");
    }
  }
  if (!c.leader_available()) fail("leader unavailable");
  if (out.stats.partitions != expected_splits) fail("missed a partition event");
  if (out.stats.heals != expected_splits) fail("missed a heal event");
  if (const auto audit = c.self_audit(); audit.has_value()) {
    fail("self-audit: " + *audit);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) g_tiny = true;
  }
  const std::size_t n = server_count();
  std::cout << "== X12: partition tolerance sweep ==\n\n"
            << n << " servers, high load (~70 %), tau = 60 s; the minority\n"
            << "side is cut from the switch fabric, the quorum shadow-restarts\n"
            << "its VMs, and the anti-entropy pass reconciles on heal.\n\n";

  const std::vector<double> shares =
      g_tiny ? std::vector<double>{0.1, 0.3} : std::vector<double>{0.1, 0.3, 0.49};
  const std::vector<std::size_t> durations =
      g_tiny ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 5};
  const char* patterns[] = {"single", "double"};

  common::TextTable table({"Minority", "Dur (itv)", "Pattern", "Fenced",
                           "Shadows", "Dups", "Adopted", "Conv (s)",
                           "Energy (kWh)", "Repro", "Invariants"});
  bool all_ok = true;
  for (const double share : shares) {
    for (const std::size_t dur : durations) {
      for (const char* pattern : patterns) {
        const auto minority =
            static_cast<std::size_t>(static_cast<double>(n) * share);
        const bool twice = std::strcmp(pattern, "double") == 0;
        // Splits land mid-interval so enforcement and healing are visible at
        // the next 60 s round boundary, like any real fabric event.
        const double start1 = 190.0;
        const double heal1 = start1 + static_cast<double>(dur) * 60.0;
        const double start2 = heal1 + 180.0;
        const double heal2 = start2 + static_cast<double>(dur) * 60.0;
        fault::FaultPlan plan;
        plan.partition(Seconds{start1}, tail_split(n, minority),
                       Seconds{heal1});
        if (twice) {
          plan.partition(Seconds{start2}, tail_split(n, minority / 2 + 1),
                         Seconds{heal2});
        }
        const double horizon = twice ? heal2 : heal1;
        const auto intervals = static_cast<std::size_t>(horizon / 60.0) + 4;
        const std::size_t expected = twice ? 2 : 1;

        const auto a = run_cell(plan, intervals, expected);
        const auto b = run_cell(plan, intervals, expected);
        const bool repro = a.fingerprint == b.fingerprint;
        if (!repro || !a.invariants_ok) all_ok = false;
        if (!a.invariants_ok) {
          std::cerr << "violation (minority " << share << ", dur " << dur
                    << ", " << pattern << "): " << a.violation << "\n";
        }
        const auto& st = a.stats;
        table.row({common::TextTable::num(share, 2),
                   common::TextTable::num(static_cast<long long>(dur)),
                   pattern,
                   common::TextTable::num(
                       static_cast<long long>(st.fenced_commands)),
                   common::TextTable::num(
                       static_cast<long long>(st.shadow_restarts)),
                   common::TextTable::num(
                       static_cast<long long>(st.duplicates_resolved)),
                   common::TextTable::num(
                       static_cast<long long>(st.orphans_adopted)),
                   common::TextTable::num(st.heal_convergence.count() > 0
                                              ? st.heal_convergence.mean()
                                              : 0.0,
                                          1),
                   common::TextTable::num(a.energy_kwh, 2),
                   repro ? "yes" : "NO", a.invariants_ok ? "ok" : "VIOLATED"});
      }
    }
  }
  table.print(std::cout);

  std::cout << "\n"
            << (all_ok ? "all cells bit-reproducible with a sound post-heal "
                         "membership"
                       : "VIOLATIONS DETECTED (see stderr)")
            << "\n\nShape check: shadow restarts scale with the minority\n"
               "share (the quorum re-covers every VM it lost sight of);\n"
               "duplicates resolved equals shadow restarts when no host\n"
               "crashes mid-split; heal convergence stays within one\n"
               "reallocation interval -- the anti-entropy pass is a single\n"
               "round, not a gossip tail.\n";
  return all_ok ? 0 : 1;
}
