// Replication runner: executes a cluster scenario across seeds and
// aggregates the Section 5 metrics.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/cluster.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "energy/regimes.h"
#include "fault/fault_plan.h"
#include "obs/observer.h"

namespace eclb::experiment {

/// One replication's outcome.
struct ReplicationOutcome {
  std::uint64_t seed{0};
  energy::RegimeHistogram initial_histogram{};   ///< Before any balancing.
  energy::RegimeHistogram final_histogram{};     ///< After the last interval (awake servers).
  std::size_t final_parked{0};                   ///< C1 servers at the end.
  std::size_t final_deep_sleeping{0};            ///< C3/C6 servers at the end.
  std::vector<cluster::IntervalReport> reports;  ///< Per-interval detail.
  common::TimeSeries ratio_series;               ///< Decision ratio per interval.
  double average_ratio{0.0};                     ///< Mean ratio over intervals.
  double ratio_stddev{0.0};                      ///< Std dev over intervals.
  double average_deep_sleepers{0.0};             ///< Mean C3/C6 servers per interval.
  common::Joules total_energy{};                 ///< Cluster energy over the run.
  std::size_t total_violations{0};
  std::size_t total_migrations{0};
  std::size_t total_local{0};
  std::size_t total_in_cluster{0};

  // Resilience (all zero on fault-free runs).
  std::size_t total_failovers{0};          ///< Leader re-elections.
  std::size_t total_dropped_messages{0};   ///< Control messages lost.
  std::size_t total_retried_messages{0};   ///< Dropped messages re-sent.
  std::size_t total_failed_migrations{0};  ///< Migrations aborted mid-copy.
  double mttr{0.0};  ///< Mean crash -> service-restored time (s).
};

/// Cross-replication aggregate.
struct AggregateOutcome {
  std::vector<ReplicationOutcome> replications;
  common::TimeSeries mean_ratio_series;    ///< Ratio per interval, mean over seeds.
  std::array<double, energy::kRegimeCount> mean_initial_histogram{};
  std::array<double, energy::kRegimeCount> mean_final_histogram{};
  common::RunningStats average_ratio;      ///< Across replications.
  common::RunningStats ratio_stddev;       ///< Across replications.
  common::RunningStats deep_sleepers;      ///< Across replications.
  common::RunningStats energy_kwh;         ///< Across replications.
  common::RunningStats violations;         ///< Across replications.
};

/// The seed replication `replication` of a run based on `base_seed` uses.
/// A splitmix64 mix of both inputs, so the streams of (base, r) and
/// (base + 1, r - 1) never coincide the way naive base + r derivation makes
/// them.
[[nodiscard]] std::uint64_t replication_seed(std::uint64_t base_seed,
                                             std::size_t replication);

/// Runs one replication of `config` for `intervals` intervals on a 1-shard
/// cluster::Fabric.  With a `plan` (see src/fault) a fault session compiles
/// it onto the shard's kernel before the first interval; an empty plan
/// yields an outcome bit-identical to no plan.  When `obs` is active a
/// ClusterProbe (trace file named after config.seed and `replication`)
/// watches the run; its metrics are merged into obs.metrics afterwards.
/// Observation never changes the simulation's outcome.
[[nodiscard]] ReplicationOutcome run_replication(
    const cluster::ClusterConfig& config, std::size_t intervals,
    const fault::FaultPlan* plan = nullptr, const obs::ObsConfig& obs = {},
    std::size_t replication = 0);

/// Runs `replications` seeds derived from config.seed via replication_seed()
/// and aggregates.  Under a `plan` each replication also derives its
/// fault-stream seed via replication_seed(), so replications see
/// independent (but reproducible) loss draws.  Each replication gets its own
/// probe (and trace file); their metrics merge into obs.metrics in
/// replication order, so the registry is identical with or without a pool.
/// When `pool` is non-null the replications execute concurrently.
[[nodiscard]] AggregateOutcome run_experiment(
    const cluster::ClusterConfig& config, std::size_t intervals,
    std::size_t replications, const fault::FaultPlan* plan = nullptr,
    const obs::ObsConfig& obs = {}, common::ThreadPool* pool = nullptr);

}  // namespace eclb::experiment
