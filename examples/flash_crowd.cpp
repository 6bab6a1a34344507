// Scenario: surviving a flash crowd with a mostly-consolidated cluster.
//
// A 500-server cluster has spent the night consolidating at ~25 % load:
// a good chunk of the fleet is parked or deep asleep.  At t = 30 min a
// flash crowd triples the demand within one reallocation interval.  The
// shock is an event on the cluster's own simulation clock, so it lands at
// its exact time between reallocation rounds; we watch the protocol wake
// capacity (C1 parks return instantly, C6 sleepers take 180 s), shed the
// hotspots and settle -- and we count what the crowd cost in violations.
//
//   $ ./flash_crowd
#include <algorithm>
#include <cstdio>
#include <vector>

#include "experiment/scenario.h"

int main() {
  using namespace eclb;
  using common::Seconds;

  auto cfg = experiment::paper_cluster_config(
      500, experiment::AverageLoad::kLow30, 1234);
  cfg.initial_load_min = 0.15;
  cfg.initial_load_max = 0.35;
  cluster::Cluster cluster(cfg);

  // The crowd: 600 VMs of 0.25 server each (150 capacity units) at t=30 min,
  // spread over the least-loaded awake servers.  Scheduled before the first
  // step, it fires ahead of the round that shares its time.
  const auto crowd = [&cluster](sim::Simulation&) {
    std::vector<const server::Server*> awake;
    for (const auto& s : cluster.servers()) {
      if (s.awake(cluster.now())) awake.push_back(&s);
    }
    std::sort(awake.begin(), awake.end(),
              [](const server::Server* a, const server::Server* b) {
                return a->load() < b->load();
              });
    std::uint32_t app = 900000;
    for (std::size_t i = 0; i < 600 && !awake.empty(); ++i) {
      const auto* target = awake[i % awake.size()];
      (void)cluster.inject_vm(target->id(), common::AppId{app++}, 0.25);
    }
  };
  cluster.simulation().schedule_at(Seconds{30.0 * 60.0}, crowd);

  std::printf("flash crowd drill: 500 servers, shock of +150 capacity at"
              " t=30min\n\n");
  std::printf("%8s %8s %8s %8s %8s %8s %10s\n", "t (min)", "load%", "awake",
              "parked", "deep", "wakes", "unserved");

  std::vector<cluster::IntervalReport> reports;
  for (int interval = 0; interval < 90; ++interval) {  // tau = 1 min
    reports.push_back(cluster.step());
  }
  double unserved_total = 0.0;
  std::size_t wakes_total = 0;
  for (const auto& r : reports) {
    unserved_total += r.unserved_demand;
    wakes_total += r.wakes;
    const double t_min = static_cast<double>(r.interval_index + 1);
    if (static_cast<int>(t_min) % 5 == 0 ||
        (t_min >= 29 && t_min <= 36)) {
      std::size_t awake = cluster.size() - r.sleeping_servers;
      std::printf("%8.0f %8.1f %8zu %8zu %8zu %8zu %10.2f\n", t_min,
                  100.0 * cluster.load_fraction(), awake, r.parked_servers,
                  r.deep_sleeping_servers, r.wakes, r.unserved_demand);
    }
  }

  std::printf("\ncrowd aftermath:\n");
  std::printf("  wake-ups ordered:   %zu\n", wakes_total);
  std::printf("  unserved demand:    %.2f capacity-intervals\n", unserved_total);
  std::printf("  final load:         %.1f%%\n", 100.0 * cluster.load_fraction());
  std::printf("  final parked/deep:  %zu / %zu\n", cluster.parked_count(),
              cluster.deep_sleeping_count());
  const auto hist = cluster.regime_histogram();
  std::printf("  final regimes:      R1:%zu R2:%zu R3:%zu R4:%zu R5:%zu\n",
              hist[0], hist[1], hist[2], hist[3], hist[4]);
  std::printf(
      "\nReading: C1-parked servers return within the interval (the paper's\n"
      "reserve argument for shallow sleep), C6 sleepers arrive ~3 intervals\n"
      "later; most of the crowd is absorbed by vertical scaling plus the\n"
      "parked reserve, and the regime histogram recentres on optimal.\n");
  return 0;
}
