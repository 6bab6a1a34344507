// The end-to-end benchmark's workloads: `eclb_cli cluster --shards`-shaped
// runs, each built from one benchmark seed and driven through the library's
// public entry points (Fabric construction and step(),
// FabricRequestSession::advance_interval(), FabricFaultSession).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "cluster/cluster.h"
#include "cluster/fabric.h"
#include "cluster/index/pipeline_stats.h"
#include "experiment/request_driver.h"
#include "fault/injector.h"

namespace perfbench {

/// One benchmark input: the shape and size of a Fabric run.
struct WorkloadSpec {
  std::string_view name;
  std::size_t servers{0};     ///< Servers across all shards.
  std::size_t shards{1};
  std::size_t threads{1};     ///< Worker threads, capped at nproc.
  std::size_t intervals{0};   ///< Reallocation intervals per episode.
  std::string_view requests;  ///< Request spec; empty = stochastic demand.
  std::string_view faults;    ///< Per-shard fault plan; empty = none.
};

/// Every workload, in the order BENCHMARK.json lists them.
[[nodiscard]] std::span<const WorkloadSpec> workloads();
/// The workload called `name`; nullptr when there is none.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// What one finished episode reports: the output-check results, the
/// model's own outputs and the counters the library exposes.
struct EpisodeResult {
  std::uint64_t digest{0};       ///< Interval reports + SLA + energy chain.
  std::string audit_error;       ///< First failed audit; empty when sound.
  double energy_kwh{0.0};
  std::uint64_t sla_violations{0};
  std::uint64_t requests_generated{0};
  std::uint64_t requests_completed{0};
  std::uint64_t requests_failed{0};  ///< Shed + dropped + failed by fault.
  std::uint64_t request_sla_violations{0};
  double sojourn_p99_s{0.0};
  std::uint64_t messages{0};
  std::uint64_t offloaded{0};
  std::uint64_t unplaced{0};
  std::uint64_t fault_dropped{0};
  std::uint64_t fault_retried{0};
  std::uint64_t fault_failed_migrations{0};
  std::uint64_t fault_shadow_restarts{0};
  eclb::cluster::index::PipelineStats pipeline{};
  eclb::cluster::ClusterMemoryStats memory{};  ///< Summed over shards.
};

/// One episode: the simulator built for (spec, seed) -- the timed set-up --
/// then stepped one interval at a time.  The seed derives the cluster,
/// request and fault streams with common::mix_seed.
class Episode {
 public:
  Episode(const WorkloadSpec& spec, std::uint64_t seed);
  ~Episode();
  Episode(const Episode&) = delete;
  Episode& operator=(const Episode&) = delete;

  [[nodiscard]] std::size_t shard_count() const;
  [[nodiscard]] eclb::cluster::Cluster& shard(std::size_t i);
  [[nodiscard]] std::size_t resolved_threads() const;
  [[nodiscard]] bool has_requests() const { return requests_.has_value(); }

  /// Switches on wall timing of the index flush phases.
  void set_phase_timing(bool on);
  /// Generates and serves the next interval's requests (no-op without).
  void advance_requests();
  /// Steps every shard one interval and keeps the report for fold().
  void step();
  /// Folds the last report into the digest; kept out of step() so the
  /// timed window holds only the library's own work.
  void fold();
  /// Runs the audits and collects the model outputs and counters.
  [[nodiscard]] EpisodeResult finish() const;

 private:
  std::unique_ptr<eclb::cluster::Fabric> fabric_;
  // Sessions reference the fabric, so they are declared after it and
  // destroyed first.
  std::optional<eclb::fault::FabricFaultSession> faults_;
  std::optional<eclb::experiment::FabricRequestSession> requests_;
  eclb::cluster::FabricIntervalReport last_;
  std::uint64_t digest_;
  std::uint64_t sla_violations_{0};
  std::uint64_t offloaded_{0};
  std::uint64_t unplaced_{0};
};

}  // namespace perfbench
