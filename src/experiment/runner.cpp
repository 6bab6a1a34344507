#include "experiment/runner.h"

#include <optional>

#include "cluster/fabric.h"
#include "common/assert.h"
#include "fault/injector.h"

namespace eclb::experiment {

namespace {

/// One replication on a 1-shard fabric, faulted by `plan` when non-null.
/// When `obs` is active a probe watches the run, writing its metrics into
/// `metrics` -- the replication's own registry, never one shared with a
/// concurrent replication.
ReplicationOutcome replicate(const cluster::ClusterConfig& config,
                             std::size_t intervals,
                             const fault::FaultPlan* plan,
                             obs::ObsConfig obs, std::size_t replication,
                             obs::MetricsRegistry& metrics) {
  ReplicationOutcome out;
  out.seed = config.seed;
  cluster::Fabric fabric(
      cluster::FabricConfig{.shard_count = 1, .cluster_template = config});
  std::optional<fault::FabricFaultSession> faults;
  if (plan != nullptr) faults.emplace(fabric, *plan);
  if (obs.metrics != nullptr) obs.metrics = &metrics;
  const auto probe = obs::ClusterProbe::make(obs, config.seed, replication);
  if (probe != nullptr) fabric.mutable_cluster(0).attach_observer(probe.get());
  const cluster::Cluster& cluster = fabric.cluster(0);
  out.initial_histogram = cluster.regime_histogram();

  out.ratio_series.label = "ratio";
  common::RunningStats ratio_stats;
  common::RunningStats deep_stats;

  out.reports.reserve(intervals);
  for (std::size_t i = 0; i < intervals; ++i) {
    cluster::IntervalReport report = std::move(fabric.step().clusters[0]);
    const double ratio = report.decision_ratio();
    out.ratio_series.add(static_cast<double>(i), ratio);
    ratio_stats.add(ratio);
    deep_stats.add(static_cast<double>(report.deep_sleeping_servers));
    out.total_violations += report.sla_violations;
    out.total_migrations += report.migrations;
    out.total_local += report.local_decisions;
    out.total_in_cluster += report.in_cluster_decisions;
    out.total_failovers += report.failovers;
    out.total_dropped_messages += report.dropped_messages;
    out.total_retried_messages += report.retried_messages;
    out.total_failed_migrations += report.failed_migrations;
    out.reports.push_back(std::move(report));
  }

  out.final_histogram = cluster.regime_histogram();
  out.final_parked = cluster.parked_count();
  out.final_deep_sleeping = cluster.deep_sleeping_count();
  out.average_ratio = ratio_stats.mean();
  out.ratio_stddev = ratio_stats.stddev();
  out.average_deep_sleepers = deep_stats.mean();
  out.total_energy = cluster.total_energy();
  if (faults.has_value()) out.mttr = faults->combined_stats().mttr();
  return out;
}

}  // namespace

std::uint64_t replication_seed(std::uint64_t base_seed,
                               std::size_t replication) {
  // The shared splitmix64 derivation (common::mix_seed): bijective pre-mix,
  // so unlike base + r the streams of (base, r) and (base + 1, r - 1) can
  // never coincide.  The fabric derives its per-shard seeds the same way.
  return common::mix_seed(base_seed,
                          static_cast<std::uint64_t>(replication));
}

ReplicationOutcome run_replication(const cluster::ClusterConfig& config,
                                   std::size_t intervals,
                                   const fault::FaultPlan* plan,
                                   const obs::ObsConfig& obs,
                                   std::size_t replication) {
  obs::MetricsRegistry metrics;
  ReplicationOutcome out =
      replicate(config, intervals, plan, obs, replication, metrics);
  if (obs.metrics != nullptr) obs.metrics->merge(metrics);
  return out;
}

AggregateOutcome run_experiment(const cluster::ClusterConfig& config,
                                std::size_t intervals,
                                std::size_t replications,
                                const fault::FaultPlan* plan,
                                const obs::ObsConfig& obs,
                                common::ThreadPool* pool) {
  ECLB_ASSERT(replications >= 1, "run_experiment: need >= 1 replication");
  AggregateOutcome agg;
  agg.replications.resize(replications);
  std::vector<obs::MetricsRegistry> metrics(replications);

  auto run_one = [&](std::size_t r) {
    cluster::ClusterConfig cfg = config;
    cfg.seed = replication_seed(config.seed, r);
    std::optional<fault::FaultPlan> rep_plan;
    if (plan != nullptr) {
      // Each replication draws its own fault stream, derived the same way
      // as the cluster seed so (plan seed, r) is reproducible.
      rep_plan = *plan;
      rep_plan->set_seed(replication_seed(plan->seed(), r));
    }
    agg.replications[r] =
        replicate(cfg, intervals, rep_plan ? &*rep_plan : nullptr, obs, r,
                  metrics[r]);
  };

  if (pool != nullptr && replications > 1) {
    pool->parallel_for(replications, run_one);
  } else {
    for (std::size_t r = 0; r < replications; ++r) run_one(r);
  }
  // Replication order, whatever order the pool finished them in.
  if (obs.metrics != nullptr) {
    for (const obs::MetricsRegistry& m : metrics) obs.metrics->merge(m);
  }

  agg.mean_ratio_series.label = "mean ratio";
  for (std::size_t i = 0; i < intervals; ++i) {
    double sum = 0.0;
    for (const auto& rep : agg.replications) sum += rep.ratio_series.y.at(i);
    agg.mean_ratio_series.add(static_cast<double>(i),
                              sum / static_cast<double>(replications));
  }
  for (std::size_t b = 0; b < energy::kRegimeCount; ++b) {
    double init_sum = 0.0;
    double final_sum = 0.0;
    for (const auto& rep : agg.replications) {
      init_sum += static_cast<double>(rep.initial_histogram[b]);
      final_sum += static_cast<double>(rep.final_histogram[b]);
    }
    agg.mean_initial_histogram[b] = init_sum / static_cast<double>(replications);
    agg.mean_final_histogram[b] = final_sum / static_cast<double>(replications);
  }
  for (const auto& rep : agg.replications) {
    agg.average_ratio.add(rep.average_ratio);
    agg.ratio_stddev.add(rep.ratio_stddev);
    agg.deep_sleepers.add(rep.average_deep_sleepers);
    agg.energy_kwh.add(rep.total_energy.kwh());
    agg.violations.add(static_cast<double>(rep.total_violations));
  }
  return agg;
}

}  // namespace eclb::experiment
