#include "experiment/request_driver.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/assert.h"

namespace eclb::experiment {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t SlaSummary::digest() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, arrived);
  fnv_mix(h, completed);
  fnv_mix(h, dropped);
  fnv_mix(h, shed);
  fnv_mix(h, failed_by_fault);
  fnv_mix(h, sla_violations);
  std::uint64_t backlog_bits = 0;
  static_assert(sizeof backlog_bits == sizeof backlog);
  std::memcpy(&backlog_bits, &backlog, sizeof backlog_bits);
  fnv_mix(h, backlog_bits);
  fnv_mix(h, histogram.digest());
  return h;
}

void SlaSummary::merge(const SlaSummary& other) {
  arrived += other.arrived;
  completed += other.completed;
  dropped += other.dropped;
  shed += other.shed;
  failed_by_fault += other.failed_by_fault;
  sla_violations += other.sla_violations;
  backlog += other.backlog;
  histogram.merge(other.histogram);
  p50 = histogram.quantile(0.50);
  p99 = histogram.quantile(0.99);
  p999 = histogram.quantile(0.999);
}

RequestDriver::RequestDriver(cluster::Cluster& cluster,
                             workload::engine::RequestWorkloadConfig config)
    : cluster_(cluster), engine_(std::move(config)) {
  ECLB_ASSERT(!cluster_.config().demand_evolution_enabled,
              "RequestDriver: build the cluster with demand_evolution_enabled "
              "= false; the driver owns the demand signal");
  rr_.assign(engine_.stream_count(), 0);
  targets_.resize(engine_.stream_count());
}

void RequestDriver::advance_interval() {
  const common::Seconds t0 = cluster_.now();
  const common::Seconds tau = cluster_.config().reallocation_interval;
  const common::Seconds t1{t0.value + tau.value};
  engine_.generate(t0, t1, &per_stream_);

  const std::size_t nstreams = engine_.stream_count();

  // 1. Snapshot the live fleet in deterministic (server index, roster
  //    position) order, stamping each live VM's entry with this interval's
  //    epoch and its slot index.  The capacity share is the host's
  //    oversubscription discount: an overloaded server serves every hosted
  //    VM proportionally, exactly how ServeAndAccount grants demand.
  ++epoch_;
  slots_.clear();
  for (auto& t : targets_) t.clear();
  const std::span<server::Server> servers = cluster_.mutable_servers();
  for (std::size_t si = 0; si < servers.size(); ++si) {
    const server::Server& s = servers[si];
    const double load = s.load();
    const double share =
        load > s.capacity() && load > 0.0 ? s.capacity() / load : 1.0;
    for (const vm::Vm& v : s.vms()) {
      const std::size_t owner =
          nstreams == 0 ? 0 : v.app().index() % nstreams;
      VmSlot slot;
      slot.id = v.id();
      slot.server = si;
      slot.rate = v.demand() * share;
      slot.sla_seconds = nstreams == 0
                             ? 0.0
                             : engine_.config().streams[owner].sla_seconds;
      if (slot.id.index() >= vms_.size()) vms_.resize(slot.id.index() + 1);
      VmEntry& e = vms_[slot.id.index()];
      e.live_epoch = epoch_;
      e.slot = static_cast<std::uint32_t>(slots_.size());
      if (owner < targets_.size()) targets_[owner].push_back(slots_.size());
      slots_.push_back(slot);
    }
  }

  // 1b. Detect migrations against the last-seen placements.  With draining
  //     enabled a moved VM's backlog stays behind as a source-side residue,
  //     served at the frozen pre-move rate; without it the queue travels
  //     with the VM exactly as before.  last_seen also lets step 3 tell a
  //     crashed host from a retired VM.
  const std::uint32_t drain_window = engine_.config().drain_intervals;
  for (const VmSlot& slot : slots_) {
    VmEntry& e = vms_[slot.id.index()];
    if (drain_window > 0 && e.seen && e.last_seen.server != slot.server &&
        e.queue.depth() > 0) {
      if (draining_.size() < vms_.size()) draining_.resize(vms_.size());
      DrainState& old = draining_[slot.id.index()];
      DrainState st;
      st.queue.prepend(e.queue.take_all());
      if (old.intervals_left > 0) {
        // Second hop while still draining: the older residue re-joins at
        // the front so overall arrival order survives.
        st.queue.prepend(old.queue.take_all());
      } else {
        ++drain_count_;
      }
      st.source = e.last_seen.server;
      st.rate = e.last_seen.rate;
      st.sla_seconds = slot.sla_seconds;
      st.intervals_left = drain_window;
      old = std::move(st);
    }
  }
  for (const VmSlot& slot : slots_) {
    VmEntry& e = vms_[slot.id.index()];
    e.last_seen = LastSeen{slot.server, slot.rate};
    e.seen = true;
  }

  // 2. Route each stream's arrivals round-robin over the VMs it owns
  //    (falling back to the whole fleet when the stream owns none).  The
  //    cursors persist across intervals so routing does not restart at the
  //    first VM every window.
  std::vector<std::size_t> all_slots;
  for (std::size_t s = 0; s < nstreams; ++s) {
    const std::vector<workload::engine::Request>& reqs = per_stream_[s];
    if (reqs.empty()) continue;
    const std::vector<std::size_t>* tgt = &targets_[s];
    if (tgt->empty()) {
      if (all_slots.empty() && !slots_.empty()) {
        all_slots.resize(slots_.size());
        for (std::size_t i = 0; i < slots_.size(); ++i) all_slots[i] = i;
      }
      tgt = &all_slots;
    }
    if (tgt->empty()) {
      // No VM anywhere to take the stream: the requests are lost.
      dropped_ += reqs.size();
      continue;
    }
    const bool admitting = engine_.config().admission !=
                           workload::engine::AdmissionPolicy::kNone;
    const std::size_t n = reqs.size();
    const std::size_t width = tgt->size();
    // A wrapping position replaces a per-request modulo; the persistent
    // cursor advances by one per arrival, shed ones included.
    std::size_t pos = static_cast<std::size_t>(rr_[s] % width);
    std::uint64_t accepted = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const VmSlot& slot = slots_[(*tgt)[pos]];
      if (++pos == width) pos = 0;
      VmEntry& e = vms_[slot.id.index()];
      e.has_queue = true;
      if (j < width && !admitting) {
        // First arrival for this VM in the window: it will take every
        // width-th request from here on, so size its queue once.
        e.queue.reserve_more((n - j + width - 1) / width);
      }
      if (admitting && shed_decision(e.queue, slot)) {
        ++shed_;
        continue;
      }
      e.queue.push(reqs[j]);
      ++accepted;
    }
    rr_[s] += n;
    arrived_ += accepted;
  }

  // 3. Serve every open queue over the window at its VM's granted share, in
  //    VmId order; queues whose VM vanished (crash orphan retired, shadow
  //    resolved) drop their requests and reset, so a VM that comes back
  //    later starts from a fresh queue.
  for (VmEntry& e : vms_) {
    if (!e.has_queue) continue;
    if (e.live_epoch != epoch_) {
      // The VM is gone.  If its last-known host is down this is stranded
      // backlog killed by the fault, not a routing drop.
      const bool host_failed = e.seen &&
                               e.last_seen.server < servers.size() &&
                               servers[e.last_seen.server].failed();
      if (host_failed) {
        failed_by_fault_ += e.queue.drop_all();
      } else {
        dropped_ += e.queue.drop_all();
      }
      e.queue = workload::engine::RequestQueue{};
      e.has_queue = false;
      e.seen = false;
      continue;
    }
    const VmSlot& slot = slots_[e.slot];
    const workload::engine::QueueServeStats stats =
        e.queue.serve(t0, t1, slot.rate, slot.sla_seconds, &hist_);
    completed_ += stats.completed;
    violations_ += stats.sla_violations;
  }

  // 3b. Serve draining residues on their source hosts (VmId order).  A
  //     crashed source fails its residue; an expired window hands whatever
  //     is left back to the VM's current queue, ahead of newer arrivals.
  for (std::size_t id = 0; drain_count_ > 0 && id < draining_.size(); ++id) {
    DrainState& st = draining_[id];
    if (st.intervals_left == 0) continue;
    if (st.source < servers.size() && servers[st.source].failed()) {
      failed_by_fault_ += st.queue.drop_all();
    } else {
      const workload::engine::QueueServeStats stats =
          st.queue.serve(t0, t1, st.rate, st.sla_seconds, &hist_);
      completed_ += stats.completed;
      violations_ += stats.sla_violations;
      if (st.intervals_left > 1 && st.queue.depth() > 0) {
        --st.intervals_left;
        continue;
      }
      if (st.queue.depth() > 0) {
        VmEntry& e = vms_[id];
        if (e.live_epoch == epoch_) {
          e.has_queue = true;
          e.queue.prepend(st.queue.take_all());
        } else {
          // The VM vanished mid-drain with the source still up: the
          // residue is a routing drop, same as a retired VM's queue.
          dropped_ += st.queue.drop_all();
        }
      }
    }
    st = DrainState{};
    --drain_count_;
  }

  // 4. Convert backlog into each VM's next demand.  Step 1 laid each
  //    server's VMs out as one run of slots in roster order, so every host
  //    takes its run's demands in one write-back.
  const double util = engine_.config().target_utilization;
  double backlog_total = 0.0;
  std::size_t i = 0;
  for (server::Server& host : servers) {
    demands_.clear();
    for (const std::size_t end = i + host.vm_count(); i < end; ++i) {
      const double backlog = vms_[slots_[i].id.index()].queue.backlog_work();
      backlog_total += backlog;
      demands_.push_back(std::clamp(backlog / (tau.value * util), 0.0, 1.0));
    }
    host.force_demands(demands_);
  }
  for (std::size_t id = 0; drain_count_ > 0 && id < draining_.size(); ++id) {
    if (draining_[id].intervals_left > 0) {
      backlog_total += draining_[id].queue.backlog_work();
    }
  }
  backlog_ = backlog_total;

  // 5. Book the batch; the recorder pre-stamped the upcoming interval, so
  //    the counts land in the round cluster.step() is about to run.
  cluster_.recorder().request_batch(
      static_cast<std::size_t>(arrived_ - last_arrived_),
      static_cast<std::size_t>(completed_ - last_completed_),
      static_cast<std::size_t>(violations_ - last_violations_),
      static_cast<std::size_t>(dropped_ - last_dropped_),
      static_cast<std::size_t>(shed_ - last_shed_),
      static_cast<std::size_t>(failed_by_fault_ - last_failed_),
      backlog_total);
  last_arrived_ = arrived_;
  last_completed_ = completed_;
  last_violations_ = violations_;
  last_dropped_ = dropped_;
  last_shed_ = shed_;
  last_failed_ = failed_by_fault_;
}

bool RequestDriver::shed_decision(const workload::engine::RequestQueue& queue,
                                  const VmSlot& slot) const {
  using workload::engine::AdmissionPolicy;
  const workload::engine::RequestWorkloadConfig& cfg = engine_.config();
  switch (cfg.admission) {
    case AdmissionPolicy::kNone:
      return false;
    case AdmissionPolicy::kTailDrop:
      return queue.depth() >= cfg.admission_cap;
    case AdmissionPolicy::kDeadlineShed: {
      const double work = queue.backlog_work();
      if (work <= 0.0) return false;  // An empty queue admits anything.
      if (!(slot.rate > 0.0)) return true;  // Backlog with no grant: shed.
      const double budget = cfg.admission_budget_seconds > 0.0
                                ? cfg.admission_budget_seconds
                                : slot.sla_seconds;
      return work / slot.rate > budget;
    }
  }
  return false;
}

std::uint64_t RequestDriver::queued() const {
  std::uint64_t total = 0;
  for (const VmEntry& e : vms_) total += e.queue.depth();
  for (const DrainState& st : draining_) total += st.queue.depth();
  return total;
}

std::optional<std::string> RequestDriver::audit() const {
  const std::uint64_t generated = engine_.total_generated();
  const std::uint64_t in_queues = queued();
  const std::uint64_t accounted =
      completed_ + shed_ + dropped_ + failed_by_fault_ + in_queues;
  if (accounted == generated) return std::nullopt;
  std::ostringstream out;
  out << "request conservation violated: generated=" << generated
      << " != completed=" << completed_ << " + shed=" << shed_
      << " + dropped=" << dropped_ << " + failed_by_fault=" << failed_by_fault_
      << " + queued=" << in_queues << " (= " << accounted << ")";
  return out.str();
}

SlaSummary RequestDriver::summary() const {
  SlaSummary s;
  s.arrived = arrived_;
  s.completed = completed_;
  s.dropped = dropped_;
  s.shed = shed_;
  s.failed_by_fault = failed_by_fault_;
  s.sla_violations = violations_;
  s.backlog = backlog_;
  s.histogram = hist_;
  s.p50 = hist_.quantile(0.50);
  s.p99 = hist_.quantile(0.99);
  s.p999 = hist_.quantile(0.999);
  return s;
}

workload::engine::RequestWorkloadConfig shard_workload_config(
    const workload::engine::RequestWorkloadConfig& config, std::size_t shard,
    std::size_t shard_count) {
  workload::engine::RequestWorkloadConfig out = config;
  const double split = static_cast<double>(shard_count);
  for (workload::engine::StreamSpec& spec : out.streams) {
    spec.rate /= split;
    spec.trace_scale /= split;
  }
  out.seed = cluster::Fabric::shard_seed(config.seed, shard, shard_count);
  return out;
}

FabricRequestSession::FabricRequestSession(
    cluster::Fabric& fabric,
    const workload::engine::RequestWorkloadConfig& config)
    : fabric_(fabric) {
  drivers_.reserve(fabric.size());
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    drivers_.push_back(std::make_unique<RequestDriver>(
        fabric.mutable_cluster(i),
        shard_workload_config(config, i, fabric.size())));
  }
}

bool FabricRequestSession::ok() const {
  for (const auto& d : drivers_) {
    if (!d->ok()) return false;
  }
  return true;
}

std::string FabricRequestSession::error() const {
  for (const auto& d : drivers_) {
    if (!d->ok()) return d->error();
  }
  return {};
}

void FabricRequestSession::advance_interval() {
  fabric_.for_each_shard([this](std::size_t i) {
    drivers_[i]->advance_interval();
  });
}

SlaSummary FabricRequestSession::summary() const {
  SlaSummary merged;
  for (const auto& d : drivers_) merged.merge(d->summary());
  return merged;
}

std::uint64_t FabricRequestSession::total_generated() const {
  std::uint64_t total = 0;
  for (const auto& d : drivers_) total += d->total_generated();
  return total;
}

std::optional<std::string> FabricRequestSession::audit() const {
  for (std::size_t i = 0; i < drivers_.size(); ++i) {
    if (auto fail = drivers_[i]->audit()) {
      return "shard " + std::to_string(i) + ": " + *fail;
    }
  }
  return std::nullopt;
}

}  // namespace eclb::experiment
