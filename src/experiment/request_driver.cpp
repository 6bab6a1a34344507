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
  plans_.resize(engine_.stream_count());
  owned_.resize(engine_.stream_count());
}

void RequestDriver::advance_interval() {
  using workload::engine::Pending;
  const common::Seconds t0 = cluster_.now();
  const common::Seconds tau = cluster_.config().reallocation_interval;
  const common::Seconds t1{t0.value + tau.value};
  engine_.generate(t0, t1, &per_stream_);

  const std::size_t nstreams = engine_.stream_count();

  // 1. Snapshot the live fleet in deterministic (server index, roster
  //    position) order, stamping each live VM's entry with this interval's
  //    epoch and recording its owning stream and its position among that
  //    stream's VMs.  The capacity share is the host's oversubscription
  //    discount: an overloaded server serves every hosted VM
  //    proportionally, exactly how ServeAndAccount grants demand.
  //
  //    The same loop detects migrations against the last-seen placements.
  //    With draining enabled a moved VM's backlog stays behind as a
  //    source-side residue, served at the frozen pre-move rate; without it
  //    the queue travels with the VM.  last_seen also lets step 3 tell a
  //    crashed host from a retired VM.
  ++epoch_;
  slots_.clear();
  std::fill(owned_.begin(), owned_.end(), 0U);
  const std::uint32_t drain_window = engine_.config().drain_intervals;
  const std::span<server::Server> servers = cluster_.mutable_servers();
  for (std::size_t si = 0; si < servers.size(); ++si) {
    const server::Server& s = servers[si];
    const double load = s.load();
    const double share =
        load > s.capacity() && load > 0.0 ? s.capacity() / load : 1.0;
    for (const vm::Vm& v : s.vms()) {
      VmSlot slot;
      slot.id = v.id();
      slot.rate = v.demand() * share;
      if (nstreams > 0) {
        slot.owner = static_cast<std::uint32_t>(v.app().index() % nstreams);
        slot.owner_pos = owned_[slot.owner]++;
        slot.sla_seconds = engine_.config().streams[slot.owner].sla_seconds;
      }
      const std::size_t id = slot.id.index();
      if (id >= vms_.size()) vms_.resize(id + 1);
      VmEntry& e = vms_[id];
      e.live_epoch = epoch_;
      if (drain_window > 0 && e.seen && e.last_seen.server != si &&
          e.count > 0) {
        start_drain(id, slot, drain_window);
      }
      e.last_seen = LastSeen{si, slot.rate};
      e.seen = true;
      slots_.push_back(slot);
    }
  }

  // 2. Plan each stream's round-robin over the VMs it owns (falling back
  //    to the whole fleet when it owns none).  The cursors persist across
  //    intervals so routing does not restart at the first VM every window,
  //    and advance by one per arrival, shed ones included.
  fallbacks_.clear();
  for (std::size_t s = 0; s < nstreams; ++s) {
    RoutePlan& plan = plans_[s];
    plan = RoutePlan{};
    const std::size_t n = per_stream_[s].size();
    if (n == 0) continue;
    const bool fallback = owned_[s] == 0;
    plan.width = fallback ? slots_.size() : owned_[s];
    if (plan.width == 0) {
      // No VM anywhere to take the stream: the requests are lost.
      dropped_ += n;
      continue;
    }
    plan.n = n;
    plan.pos0 = static_cast<std::size_t>(rr_[s] % plan.width);
    rr_[s] += n;
    if (fallback) fallbacks_.push_back(s);
  }

  // 3. Queues whose VM vanished (crash orphan retired, shadow resolved)
  //    drop their requests and reset, so a VM that comes back later starts
  //    from a fresh queue.  If the VM's last-known host is down this is
  //    stranded backlog killed by the fault, not a routing drop.  Residues
  //    of vanished VMs drain on; an expiring one is a routing drop too.
  for (VmEntry& e : vms_) {
    if (!e.has_queue || e.live_epoch == epoch_) continue;
    const bool host_failed = e.seen && e.last_seen.server < servers.size() &&
                             servers[e.last_seen.server].failed();
    (host_failed ? failed_by_fault_ : dropped_) += e.count;
    e = VmEntry{};
  }
  for (std::size_t id = 0; drain_count_ > 0 && id < draining_.size(); ++id) {
    if (draining_[id].intervals_left > 0 && vms_[id].live_epoch != epoch_) {
      advance_residue(id, /*live=*/false, 0, t0, t1, servers);
    }
  }

  // 4. One pass over the live VMs in slot order.  Each VM's queue is its
  //    carried run followed by its arrivals, stream by stream; it is
  //    served in place at the tail of next_ and its survivors stay there
  //    as its run for the next window.  Its drain residue follows, and an
  //    expiring one re-joins ahead of the survivors.  The backlog becomes
  //    the VM's next demand; step 1 laid each server's VMs out as one run
  //    of slots in roster order, so every host takes its run's demands in
  //    one write-back.
  next_.clear();
  const double util = engine_.config().target_utilization;
  double backlog_total = 0.0;
  std::size_t i = 0;
  for (server::Server& host : servers) {
    demands_.clear();
    for (const std::size_t end = i + host.vm_count(); i < end; ++i) {
      const VmSlot& slot = slots_[i];
      const std::size_t id = slot.id.index();
      VmEntry& e = vms_[id];
      const std::size_t base = next_.size();
      next_.insert(next_.end(), carry_.begin() + e.begin,
                   carry_.begin() + e.begin + e.count);
      if (nstreams > 0) {
        // Stream order: the fallback streams and the owner, ascending.
        std::size_t routed = 0;
        bool owner_done = plans_[slot.owner].n == 0;
        for (const std::size_t s : fallbacks_) {
          if (!owner_done && slot.owner < s) {
            routed += gather(slot.owner, slot.owner_pos, slot, e, base);
            owner_done = true;
          }
          routed += gather(s, i, slot, e, base);
        }
        if (!owner_done) {
          routed += gather(slot.owner, slot.owner_pos, slot, e, base);
        }
        if (routed > 0) e.has_queue = true;
      }
      e.begin = base;
      e.count = next_.size() - base;
      if (e.has_queue) {
        const workload::engine::QueueServeStats stats = workload::engine::serve(
            std::span<Pending>(next_.data() + base, e.count), e.fifo, t0, t1,
            slot.rate, slot.sla_seconds, &hist_);
        completed_ += stats.completed;
        violations_ += stats.sla_violations;
        if (stats.completed > 0) {
          const auto head = next_.begin() + static_cast<std::ptrdiff_t>(base);
          next_.erase(head,
                      head + static_cast<std::ptrdiff_t>(stats.completed));
          e.count -= stats.completed;
        }
      }
      if (drain_count_ > 0 && id < draining_.size() &&
          draining_[id].intervals_left > 0) {
        advance_residue(id, /*live=*/true, base, t0, t1, servers);
      }
      backlog_total += e.fifo.backlog;
      demands_.push_back(
          std::clamp(e.fifo.backlog / (tau.value * util), 0.0, 1.0));
    }
    host.force_demands(demands_);
  }
  carry_.swap(next_);
  for (std::size_t id = 0; drain_count_ > 0 && id < draining_.size(); ++id) {
    if (draining_[id].intervals_left > 0) {
      backlog_total += draining_[id].fifo.backlog;
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

void RequestDriver::start_drain(std::size_t id, const VmSlot& slot,
                                std::uint32_t window) {
  using workload::engine::Pending;
  VmEntry& e = vms_[id];
  if (draining_.size() < vms_.size()) draining_.resize(vms_.size());
  DrainState& old = draining_[id];
  DrainState st;
  workload::engine::prepend(
      st.pending, 0, std::span<const Pending>(carry_.data() + e.begin, e.count),
      st.fifo);
  if (old.intervals_left > 0) {
    // Second hop while still draining: the older residue re-joins at the
    // front so overall arrival order survives.
    workload::engine::prepend(st.pending, 0, old.pending, st.fifo);
  } else {
    ++drain_count_;
  }
  st.source = e.last_seen.server;
  st.rate = e.last_seen.rate;
  st.sla_seconds = slot.sla_seconds;
  st.intervals_left = window;
  old = std::move(st);
  // The queue is handed over whole; its server-free time stays.
  e.count = 0;
  e.fifo.backlog = 0.0;
}

std::size_t RequestDriver::gather(std::size_t s, std::size_t pos,
                                  const VmSlot& slot, VmEntry& e,
                                  std::size_t base) {
  const RoutePlan& plan = plans_[s];
  std::size_t j = pos >= plan.pos0 ? pos - plan.pos0
                                   : pos + plan.width - plan.pos0;
  if (j >= plan.n) return 0;
  const std::size_t routed = (plan.n - j + plan.width - 1) / plan.width;
  const workload::engine::Request* reqs = per_stream_[s].data();
  if (engine_.config().admission == workload::engine::AdmissionPolicy::kNone) {
    for (; j < plan.n; j += plan.width) {
      workload::engine::push(next_, e.fifo, reqs[j]);
    }
    arrived_ += routed;
    return routed;
  }
  for (; j < plan.n; j += plan.width) {
    if (shed_decision(next_.size() - base, e.fifo.backlog, slot)) {
      ++shed_;
      continue;
    }
    workload::engine::push(next_, e.fifo, reqs[j]);
    ++arrived_;
  }
  return routed;
}

void RequestDriver::advance_residue(std::size_t id, bool live,
                                    std::size_t base, common::Seconds t0,
                                    common::Seconds t1,
                                    std::span<const server::Server> servers) {
  DrainState& st = draining_[id];
  if (st.source < servers.size() && servers[st.source].failed()) {
    failed_by_fault_ += st.pending.size();
  } else {
    const workload::engine::QueueServeStats stats = workload::engine::serve(
        st.pending, st.fifo, t0, t1, st.rate, st.sla_seconds, &hist_);
    completed_ += stats.completed;
    violations_ += stats.sla_violations;
    st.pending.erase(
        st.pending.begin(),
        st.pending.begin() + static_cast<std::ptrdiff_t>(stats.completed));
    if (st.intervals_left > 1 && !st.pending.empty()) {
      --st.intervals_left;
      return;
    }
    if (live) {
      if (!st.pending.empty()) {
        VmEntry& e = vms_[id];
        e.has_queue = true;
        workload::engine::prepend(next_, base, st.pending, e.fifo);
        e.count += st.pending.size();
      }
    } else {
      // The VM vanished mid-drain with the source still up: the residue is
      // a routing drop, same as a retired VM's queue.
      dropped_ += st.pending.size();
    }
  }
  st = DrainState{};
  --drain_count_;
}

bool RequestDriver::shed_decision(std::size_t depth, double backlog,
                                  const VmSlot& slot) const {
  using workload::engine::AdmissionPolicy;
  const workload::engine::RequestWorkloadConfig& cfg = engine_.config();
  switch (cfg.admission) {
    case AdmissionPolicy::kNone:
      return false;
    case AdmissionPolicy::kTailDrop:
      return depth >= cfg.admission_cap;
    case AdmissionPolicy::kDeadlineShed: {
      if (backlog <= 0.0) return false;  // An empty queue admits anything.
      if (!(slot.rate > 0.0)) return true;  // Backlog with no grant: shed.
      const double budget = cfg.admission_budget_seconds > 0.0
                                ? cfg.admission_budget_seconds
                                : slot.sla_seconds;
      return backlog / slot.rate > budget;
    }
  }
  return false;
}

std::uint64_t RequestDriver::queued() const {
  std::uint64_t total = 0;
  for (const VmEntry& e : vms_) total += e.count;
  for (const DrainState& st : draining_) total += st.pending.size();
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
