// Routes the request engine's output onto a cluster's VMs.
//
// The driver closes the loop between the open-loop workload generator
// (workload/engine) and the protocol's demand signal: each reallocation
// interval it generates the window's arrivals, round-robins them onto
// per-VM FIFO queues, serves every queue at the capacity share its host
// granted, and converts the remaining backlog into each VM's next demand
//
//   d* = min(1, backlog / (tau * target_utilization)),
//
// the inversion of "a VM at demand d clears d*tau capacity-seconds per
// interval at the target utilization".  The protocol itself is untouched:
// it still sheds, rebalances, sleeps and accounts SLA violations off the
// demand signal -- only the *source* of demand changes, which is why the
// cluster must be built with demand_evolution_enabled = false (the driver
// replaces the evolve_and_scale bernoulli pass).
//
// Storage: per-VM state (the queue's header, the last-seen placement)
// lives in dense vectors indexed by VmId::value; a cluster allocates VM
// ids in sequence.  The queues themselves share one contiguous carry
// buffer: each VM's unserved requests are one run in it, in slot order,
// and its entry keeps {begin, count} plus the queue's backlog and
// server-free time.  Each interval's snapshot stamps the live VMs' entries
// with an epoch; one pass over the slots then rebuilds every run into a
// second buffer -- carried requests, then the VM's arrivals gathered by
// stride from the window, admitted as they are appended -- serves it in
// place, splices in an expiring drain residue (a small vector of its own)
// and writes the demand back, and the two buffers swap.  When a VM with
// an open queue vanishes, its entry resets to a fresh default, so an id
// that comes back later starts from an empty queue.
//
// Determinism: arrivals are a pure function of (workload config, seed);
// routing, serving and the write-back walk servers in index order and VM
// rosters in position order, and each VM sees the same operations in the
// same order wherever it is visited; the backlog sum adds VMs in that
// order and residues in ascending VmId order.  Two runs with the same
// cluster seed and workload config are bit-identical.
// FabricRequestSession advances the per-shard drivers in parallel on the
// fabric's pool lanes; each driver touches only its own cluster, engine and
// histogram, so a fabric run stays bit-identical at any thread count.
//
// Overload resilience (flag-gated; defaults reproduce PR 8 byte-for-byte):
// admission control sheds arrivals whose target queue is past the policy's
// bar (a pure function of queue state -- no RNG draw); migration draining
// keeps a residue on the source host served over `drain_intervals` instead
// of teleporting backlog to the destination; and requests stranded on a
// crashed host fail deterministically at detection time rather than being
// silently dropped, surfacing as `failed_by_fault`.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/fabric.h"
#include "workload/engine/engine.h"
#include "workload/engine/latency.h"
#include "workload/engine/queue.h"

namespace eclb::experiment {

/// End-to-end request accounting for one run (or one merged fabric run).
struct SlaSummary {
  std::uint64_t arrived{0};         ///< Requests routed onto queues.
  std::uint64_t completed{0};       ///< Requests fully served.
  std::uint64_t dropped{0};         ///< Requests lost with a vanished VM.
  std::uint64_t shed{0};            ///< Requests refused by admission.
  std::uint64_t failed_by_fault{0}; ///< Requests stranded by a host crash.
  std::uint64_t sla_violations{0};  ///< Completions beyond their SLA.
  double backlog{0.0};              ///< Queued work at run end, cap-seconds.
  double p50{0.0};                  ///< Median sojourn, seconds.
  double p99{0.0};
  double p999{0.0};
  workload::engine::LatencyHistogram histogram{};

  /// FNV-1a digest over every counter and the histogram -- the repro
  /// fingerprint the determinism checks compare.
  [[nodiscard]] std::uint64_t digest() const;

  /// Accumulates `other` (fabric merge: counters add, histograms merge,
  /// quantiles are recomputed from the merged histogram).
  void merge(const SlaSummary& other);
};

/// Drives one cluster's request workload.  Call advance_interval()
/// immediately before every cluster.step().
class RequestDriver {
 public:
  /// The cluster must have been built with demand_evolution_enabled =
  /// false; the driver owns the demand signal from now on.
  RequestDriver(cluster::Cluster& cluster,
                workload::engine::RequestWorkloadConfig config);

  /// False when a trace-backed stream failed to open.
  [[nodiscard]] bool ok() const { return engine_.ok(); }
  /// First stream error, empty when ok().
  [[nodiscard]] std::string error() const { return engine_.error(); }

  /// Generates, routes and serves the upcoming interval [now, now + tau),
  /// then installs each VM's next demand (one write-back per server) and
  /// books the batch into the cluster's recorder.
  void advance_interval();

  /// Accounting so far (quantiles computed from the live histogram).
  [[nodiscard]] SlaSummary summary() const;

  /// The shared sojourn histogram.
  [[nodiscard]] const workload::engine::LatencyHistogram& histogram() const {
    return hist_;
  }

  /// Requests generated by the engine so far.
  [[nodiscard]] std::uint64_t total_generated() const {
    return engine_.total_generated();
  }

  /// Requests still queued (main queues plus draining residues).
  [[nodiscard]] std::uint64_t queued() const;

  /// The request-conservation invariant: every generated request is exactly
  /// one of completed / shed / dropped / failed-by-fault / still queued.
  /// Returns nullopt when the books balance, else a diagnostic.
  [[nodiscard]] std::optional<std::string> audit() const;

 private:
  /// One live VM as seen at the head of an interval.
  struct VmSlot {
    common::VmId id{};
    double rate{0.0};            ///< Granted capacity share this interval.
    double sla_seconds{0.0};     ///< Owning stream's sojourn budget.
    std::uint32_t owner{0};      ///< Owning stream.
    std::uint32_t owner_pos{0};  ///< Index among the owning stream's VMs.
  };

  /// How one stream's window of arrivals spreads over its VMs: arrival j
  /// goes to the VM at position (pos0 + j) mod width of the stream's
  /// targets -- the VMs it owns in slot order, or every slot when it owns
  /// none (then a VM's position is its slot index).
  struct RoutePlan {
    std::size_t n{0};      ///< Arrivals to route (0: none, or no VM at all).
    std::size_t width{0};  ///< Target count.
    std::size_t pos0{0};   ///< Position of the window's first arrival.
  };

  /// Residual backlog left behind on a migration source while it drains.
  struct DrainState {
    std::vector<workload::engine::Pending> pending;  ///< Oldest first.
    workload::engine::FifoState fifo;
    std::size_t source{0};         ///< Source host index in the server array.
    double rate{0.0};              ///< Frozen serve rate (pre-move share).
    double sla_seconds{0.0};       ///< Owning stream's sojourn budget.
    std::uint32_t intervals_left{0};
  };

  /// The last placement the driver saw for a VM (detects migrations and
  /// lets vanished queues distinguish a crashed host from a retired VM).
  struct LastSeen {
    std::size_t server{0};
    double rate{0.0};
  };

  /// Everything the driver keeps for one VM id.  A default-constructed
  /// entry is an id the driver holds nothing for.
  struct VmEntry {
    std::size_t begin{0};  ///< The queue's run in carry_: [begin, +count).
    std::size_t count{0};
    workload::engine::FifoState fifo;
    LastSeen last_seen;
    std::uint32_t live_epoch{0};  ///< == epoch_ while the VM is live.
    bool has_queue{false};  ///< Opened by routing or a drain handback.
    bool seen{false};       ///< last_seen is set.
  };

  /// Moves VM `id`'s carried queue into a drain residue on its last host,
  /// served at its last rate for `window` intervals; a residue still
  /// draining from an earlier hop re-joins at the front.
  void start_drain(std::size_t id, const VmSlot& slot, std::uint32_t window);

  /// Appends VM `slot`'s share of stream `s`'s window -- the arrivals at
  /// its position `pos` of the stream's route plan -- to next_, admitting
  /// each against the queue as it stands.  Returns the arrivals routed to
  /// the VM, shed ones included.
  std::size_t gather(std::size_t s, std::size_t pos, const VmSlot& slot,
                     VmEntry& e, std::size_t base);

  /// Advances VM `id`'s drain residue by one window.  A down source host
  /// fails it; otherwise it is served at its frozen rate, and when its
  /// window runs out whatever is left re-joins the VM -- spliced into
  /// next_ at `base`, ahead of the VM's survivors -- or, when `live` is
  /// false (the VM vanished), is dropped.
  void advance_residue(std::size_t id, bool live, std::size_t base,
                       common::Seconds t0, common::Seconds t1,
                       std::span<const server::Server> servers);

  /// True when admission refuses an arrival given the target queue's
  /// depth and backlog -- a pure function of (policy, queue, rate), so no
  /// RNG stream moves.
  [[nodiscard]] bool shed_decision(std::size_t depth, double backlog,
                                   const VmSlot& slot) const;

  cluster::Cluster& cluster_;
  workload::engine::RequestEngine engine_;
  std::vector<std::vector<workload::engine::Request>> per_stream_;
  std::vector<VmSlot> slots_;
  std::vector<double> demands_;  ///< One host's next demands (reused).
  std::vector<RoutePlan> plans_;           ///< One per stream, per window.
  std::vector<std::size_t> fallbacks_;     ///< Streams owning no VM, in order.
  std::vector<std::uint32_t> owned_;       ///< Live VMs per stream.
  std::vector<std::uint64_t> rr_;          ///< Round-robin cursors.
  /// Per-VM state indexed by VmId::value.  A cluster allocates VM ids in
  /// sequence, so ascending index order is VmId order.
  std::vector<VmEntry> vms_;
  /// The carry buffer: every VM's unserved requests, one run per VM in
  /// slot order.  Each window rebuilds it into next_, then the two swap.
  std::vector<workload::engine::Pending> carry_;
  std::vector<workload::engine::Pending> next_;
  /// Drain residues indexed by VmId::value; intervals_left == 0 marks an id
  /// with no residue.  Sized on the first migration under a drain window.
  std::vector<DrainState> draining_;
  std::size_t drain_count_{0};  ///< Residues in draining_.
  std::uint32_t epoch_{0};      ///< Intervals advanced; stamps live VMs.
  workload::engine::LatencyHistogram hist_;
  std::uint64_t arrived_{0};
  std::uint64_t completed_{0};
  std::uint64_t dropped_{0};
  std::uint64_t shed_{0};
  std::uint64_t failed_by_fault_{0};
  std::uint64_t violations_{0};
  // Totals at the previous recorder booking (request_batch takes deltas).
  std::uint64_t last_arrived_{0};
  std::uint64_t last_completed_{0};
  std::uint64_t last_dropped_{0};
  std::uint64_t last_shed_{0};
  std::uint64_t last_failed_{0};
  std::uint64_t last_violations_{0};
  double backlog_{0.0};
};

/// Splits `config` across `shard_count` shards: per-stream rates (and trace
/// scales) divide evenly, the shard's engine seed derives via
/// Fabric::shard_seed(config.seed, shard, shard_count).  Shard 0 of 1
/// returns the config unchanged.
[[nodiscard]] workload::engine::RequestWorkloadConfig shard_workload_config(
    const workload::engine::RequestWorkloadConfig& config, std::size_t shard,
    std::size_t shard_count);

/// One RequestDriver per fabric shard, advanced in parallel on the fabric's
/// pool lanes (Fabric::for_each_shard).  Drivers share no mutable state, so
/// a fabric run stays bit-identical at any thread count.  Call
/// advance_interval() immediately before every fabric.step().
class FabricRequestSession {
 public:
  FabricRequestSession(cluster::Fabric& fabric,
                       const workload::engine::RequestWorkloadConfig& config);

  [[nodiscard]] bool ok() const;
  [[nodiscard]] std::string error() const;

  /// Advances every shard's driver, one shard per worker task.
  void advance_interval();

  /// Merged accounting across the shards.
  [[nodiscard]] SlaSummary summary() const;

  /// Requests generated across every shard's engine.
  [[nodiscard]] std::uint64_t total_generated() const;

  /// First failing shard's conservation diagnostic, nullopt when all pass.
  [[nodiscard]] std::optional<std::string> audit() const;

  [[nodiscard]] std::size_t size() const { return drivers_.size(); }
  [[nodiscard]] RequestDriver& driver(std::size_t i) { return *drivers_.at(i); }

 private:
  cluster::Fabric& fabric_;
  std::vector<std::unique_ptr<RequestDriver>> drivers_;
};

}  // namespace eclb::experiment
