#include "workloads.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <thread>

#include "common/rng.h"
#include "experiment/scenario.h"
#include "fault/fault_plan.h"
#include "workload/engine/spec.h"

namespace perfbench {

namespace {

using namespace eclb;

// Why these three: each loads a different layer, so an optimisation of one
// layer has a workload that exercises it and others that should not move.
//   fabric_protocol the parallel phase, barrier and router, with each
//                   shard's index cache-resident;
//   fabric_requests the request plane (generate, route, serve, demand
//                   write-back), with light protocol work;
//   fabric_faults   retries, orphan recovery, shadow restarts, side-filtered
//                   scans, reconcile and index rebuild, with real time spent
//                   in each shard's event kernel between rounds.
// The fault plan is a 10^4-server plan scaled to one 1000-server shard;
// every shard runs it on its own fault stream.
constexpr std::array<WorkloadSpec, 3> kWorkloads = {{
    {"fabric_protocol", 100000, 100, 4, 40, "", ""},
    {"fabric_requests", 10000, 10, 4, 40,
     "poisson:rate=2000;flash:rate=500,burst=8", ""},
    {"fabric_faults", 10000, 10, 4, 50, "",
     "leader@1200;crash@600:s=3;crash@900:s=701;recover@2400:s=3;"
     "loss@0:p=0.05;migfail@0:p=0.1;part@1800:g=0-799|800-999,heal=2400"},
}};

// Stream indices under the benchmark seed.
constexpr std::uint64_t kClusterStream = 0;
constexpr std::uint64_t kRequestStream = 1;
constexpr std::uint64_t kFaultStream = 2;

std::size_t capped_threads(std::size_t wanted) {
  const std::size_t cpus = std::max(1U, std::thread::hardware_concurrency());
  return std::min(wanted, cpus);
}

std::uint64_t chain(std::uint64_t digest, std::uint64_t value) {
  return common::mix_seed(digest, value);
}

}  // namespace

std::span<const WorkloadSpec> workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Episode::Episode(const WorkloadSpec& spec, std::uint64_t seed)
    : digest_(seed) {
  cluster::FabricConfig fcfg;
  fcfg.shard_count = spec.shards;
  fcfg.threads = capped_threads(spec.threads);
  fcfg.cluster_template = experiment::paper_cluster_config(
      spec.servers / spec.shards, experiment::AverageLoad::kLow30,
      common::mix_seed(seed, kClusterStream));
  if (!spec.requests.empty()) {
    fcfg.cluster_template.demand_evolution_enabled = false;
  }
  fabric_ = std::make_unique<cluster::Fabric>(fcfg);
  if (!spec.faults.empty()) {
    std::string error;
    auto plan = fault::FaultPlan::parse(spec.faults, &error);
    if (!plan.has_value()) throw std::runtime_error("fault plan: " + error);
    plan->set_seed(common::mix_seed(seed, kFaultStream));
    faults_.emplace(*fabric_, *plan);
  }
  if (!spec.requests.empty()) {
    std::string error;
    auto cfg = workload::engine::RequestWorkloadConfig::parse(spec.requests,
                                                              &error);
    if (!cfg.has_value()) throw std::runtime_error("request spec: " + error);
    cfg->seed = common::mix_seed(seed, kRequestStream);
    requests_.emplace(*fabric_, *cfg);
    if (!requests_->ok()) {
      throw std::runtime_error("request session: " + requests_->error());
    }
  }
}

Episode::~Episode() = default;

std::size_t Episode::shard_count() const { return fabric_->size(); }

cluster::Cluster& Episode::shard(std::size_t i) {
  return fabric_->mutable_cluster(i);
}

std::size_t Episode::resolved_threads() const {
  return fabric_->resolved_threads();
}

void Episode::set_phase_timing(bool on) {
  fabric_->set_pipeline_phase_timing(on);
}

void Episode::advance_requests() {
  if (requests_.has_value()) requests_->advance_interval();
}

void Episode::step() { last_ = fabric_->step(); }

void Episode::fold() {
  digest_ = chain(digest_, cluster::fabric_report_digest(last_));
  sla_violations_ += last_.total_sla_violations();
  offloaded_ += last_.inter_cluster_placements;
  unplaced_ += last_.unplaced_overflows;
}

EpisodeResult Episode::finish() const {
  EpisodeResult r;
  r.sla_violations = sla_violations_;
  r.offloaded = offloaded_;
  r.unplaced = unplaced_;
  std::size_t servers = 0;
  for (std::size_t i = 0; i < fabric_->size(); ++i) {
    const cluster::Cluster& c = fabric_->cluster(i);
    if (auto bad = c.self_audit(); bad.has_value() && r.audit_error.empty()) {
      r.audit_error = "shard " + std::to_string(i) + " self_audit: " + *bad;
    }
    r.messages += c.message_stats().total();
    const cluster::ClusterMemoryStats m = c.memory_stats();
    r.memory.state_table_bytes += m.state_table_bytes;
    r.memory.index_bytes += m.index_bytes;
    r.memory.vm_storage_bytes += m.vm_storage_bytes;
    r.memory.recorder_bytes += m.recorder_bytes;
    r.memory.total_bytes += m.total_bytes;
    servers += c.size();
  }
  r.memory.bytes_per_server =
      static_cast<double>(r.memory.total_bytes) / static_cast<double>(servers);

  const common::Joules energy = fabric_->total_energy();
  r.energy_kwh = energy.kwh();
  std::uint64_t digest =
      chain(digest_, std::bit_cast<std::uint64_t>(energy.value));
  digest = chain(digest, fabric_->state_digest());
  r.pipeline = fabric_->pipeline_stats();

  if (requests_.has_value()) {
    if (auto bad = requests_->audit();
        bad.has_value() && r.audit_error.empty()) {
      r.audit_error = "request audit: " + *bad;
    }
    const experiment::SlaSummary s = requests_->summary();
    r.requests_generated = requests_->total_generated();
    r.requests_completed = s.completed;
    r.requests_failed = s.shed + s.dropped + s.failed_by_fault;
    r.request_sla_violations = s.sla_violations;
    r.sojourn_p99_s = s.p99;
    digest = chain(digest, s.digest());
  }
  if (faults_.has_value()) {
    const fault::ResilienceStats st = faults_->combined_stats();
    r.fault_dropped = st.dropped_messages;
    r.fault_retried = st.retried_messages;
    r.fault_failed_migrations = st.migration_failures;
    r.fault_shadow_restarts = st.shadow_restarts;
  }
  r.digest = digest;
  return r;
}

}  // namespace perfbench
