// Interval instrumentation: typed protocol events and the report they roll
// up into.
//
// Protocol actions do not hand-assemble counters; they emit typed events
// (migration, sleep/wake, SLA/QoS violation, local vs in-cluster decision)
// to an IntervalRecorder.  The recorder aggregates them into the
// IntervalReport the benches consume and offers a single choke point -- an
// optional sink -- for future tracing or metrics export.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "cluster/messages.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/units.h"
#include "energy/regimes.h"

namespace eclb::cluster {

/// Which cost class a scaling decision fell into (the paper's headline
/// split: p_k-priced local resizes vs q_k + j_k-priced in-cluster moves).
enum class DecisionKind : std::uint8_t {
  kLocal = 0,      ///< Vertical resize granted on the requesting server.
  kInCluster = 1,  ///< Leader-mediated migration or remote VM start.
};

/// Why a live migration happened.
enum class MigrationCause : std::uint8_t {
  kShed = 0,           ///< R4/R5 shedding toward the optimal region.
  kRebalance = 1,      ///< Even-distribution pass above the optimal center.
  kConsolidation = 2,  ///< R1 drain onto more-loaded peers.
};

/// Display name.
[[nodiscard]] std::string_view to_string(DecisionKind k);
[[nodiscard]] std::string_view to_string(MigrationCause c);

/// One typed protocol event, as emitted by the actions.
struct ProtocolEvent {
  enum class Kind : std::uint8_t {
    kDecision = 0,         ///< A scaling decision (see `decision`).
    kMigration = 1,        ///< A live migration (see `cause`).
    kHorizontalStart = 2,  ///< A fresh VM started on a remote server.
    kOffload = 3,          ///< Demand placed in a sibling cluster.
    kDrain = 4,            ///< A server fully emptied this interval.
    kSleep = 5,            ///< A sleep transition begun.
    kWake = 6,             ///< A wake transition begun.
    kSlaViolation = 7,     ///< Demand left unserved (see `unserved`).
    kQosViolation = 8,     ///< A server above the response-time cap.
    kServerCrash = 9,      ///< A server failed (fault injection).
    kServerRecover = 10,   ///< A failed server returned to service.
    kLeaderFailover = 11,  ///< Leadership re-elected onto `server`.
    kMessageDropped = 12,  ///< A control message was lost (see `message`).
    kMessageRetried = 13,  ///< A dropped message was re-sent (see `message`).
    kOrphanReplaced = 14,  ///< A crash-orphaned VM restarted on `server`.
    kMigrationFailed = 15, ///< A live migration aborted mid-copy.
    kCapacityDerate = 16,  ///< `server` derated to `value` capacity.
    kPartitionStart = 17,  ///< The fabric split into `value` sides.
    kPartitionHeal = 18,   ///< The fabric healed; reconciliation is pending.
    kCommandFenced = 19,   ///< A stale-epoch command to `server` was fenced.
    kShadowStart = 20,     ///< Quorum restarted a minority-hosted VM on `server`.
    kDuplicateResolved = 21, ///< Reconciliation retired a duplicate on `server`.
    kReconcile = 22,       ///< Post-heal reconciliation converged (`value` = s).
    kRequestBatch = 23,    ///< Request-engine interval totals (request fields).
    kWakeSleepFlap = 24,   ///< `server` re-woke (or re-slept) within the
                           ///< hysteresis flap window of its last transition.
    kShadowAdopted = 25,   ///< Reconciliation kept the shadow on `server`.
  };

  Kind kind{Kind::kDecision};
  std::size_t interval{0};                   ///< Interval index of the event.
  common::ServerId server{};                 ///< Involved server, when known.
  DecisionKind decision{DecisionKind::kLocal};      ///< For kDecision.
  MigrationCause cause{MigrationCause::kShed};      ///< For kMigration.
  double unserved{0.0};                      ///< For kSlaViolation.
  MessageKind message{MessageKind::kRegimeReport};  ///< For kMessageDropped/Retried.
  double value{0.0};                         ///< For kCapacityDerate; queued
                                             ///< work for kRequestBatch.
  std::uint32_t requests_arrived{0};         ///< For kRequestBatch.
  std::uint32_t requests_completed{0};       ///< For kRequestBatch.
  std::uint32_t requests_violated{0};        ///< For kRequestBatch.
  std::uint32_t requests_dropped{0};         ///< For kRequestBatch.
  std::uint32_t requests_shed{0};            ///< For kRequestBatch (admission).
  std::uint32_t requests_failed{0};          ///< For kRequestBatch (host crash).
};

/// Number of event kinds.
inline constexpr std::size_t kProtocolEventKindCount =
    static_cast<std::size_t>(ProtocolEvent::Kind::kShadowAdopted) + 1;

/// Display name of an event kind (stable; part of the trace schema).
[[nodiscard]] std::string_view to_string(ProtocolEvent::Kind k);

/// What happened during one reallocation interval.
struct IntervalReport {
  std::size_t interval_index{0};
  std::size_t local_decisions{0};      ///< Vertical resizes granted locally.
  std::size_t in_cluster_decisions{0}; ///< Migrations + remote VM starts.
  std::size_t migrations{0};           ///< Live migrations executed (all causes).
  std::size_t shed_migrations{0};      ///< Caused by R4/R5 shedding.
  std::size_t rebalance_migrations{0}; ///< Caused by the even-distribution pass.
  std::size_t consolidation_migrations{0}; ///< Caused by R1 drains.
  std::size_t horizontal_starts{0};    ///< Fresh VMs started remotely.
  std::size_t offloaded_requests{0};   ///< Demand placed in a sibling cluster.
  std::size_t drains{0};               ///< Servers fully drained this interval.
  std::size_t sleeps{0};               ///< Sleep transitions begun.
  std::size_t wakes{0};                ///< Wake transitions begun.
  std::size_t sla_violations{0};       ///< Demand increments / loads not served.
  std::size_t qos_violations{0};       ///< Servers above the response-time cap.
  double unserved_demand{0.0};         ///< Total demand left unserved.
  std::size_t crashes{0};              ///< Servers failed this interval (fault layer).
  std::size_t recoveries{0};           ///< Failed servers repaired this interval.
  std::size_t failovers{0};            ///< Leadership re-elections this interval.
  std::size_t dropped_messages{0};     ///< Control messages lost on faulty links.
  std::size_t retried_messages{0};     ///< Dropped messages re-sent (with backoff).
  std::size_t orphans_replaced{0};     ///< Crash-orphaned VMs restarted elsewhere.
  std::size_t failed_migrations{0};    ///< Live migrations aborted mid-copy.
  std::size_t partitions{0};           ///< Fabric partitions begun this interval.
  std::size_t heals{0};                ///< Fabric heals (reconciliations) this interval.
  std::size_t fenced_commands{0};      ///< Stale-epoch commands fenced by receivers.
  std::size_t shadow_starts{0};        ///< Minority-hosted VMs shadow-restarted by quorum.
  std::size_t duplicates_resolved{0};  ///< Duplicate placements retired at reconcile.
  std::size_t orphans_adopted{0};      ///< Shadows kept at reconcile (original lost).
  std::size_t requests_arrived{0};     ///< Requests routed this interval (request engine).
  std::size_t requests_completed{0};   ///< Requests finished this interval.
  std::size_t request_sla_violations{0}; ///< Completions beyond their SLA budget.
  std::size_t requests_dropped{0};     ///< Requests lost to vanished VMs.
  std::size_t requests_shed{0};        ///< Requests refused by admission control.
  std::size_t requests_failed_by_fault{0}; ///< Requests stranded by host crashes.
  std::size_t wake_sleep_flaps{0};     ///< Sleep/wake reversals inside the flap window.
  double request_backlog{0.0};         ///< Queued work at interval end (capacity-seconds).
  std::size_t sleeping_servers{0};     ///< Servers not awake after the step (any C-state).
  std::size_t parked_servers{0};       ///< Servers halted in C1 (instant wake).
  std::size_t deep_sleeping_servers{0};///< Servers in C3/C6 -- Table 2's "sleep state".
  std::size_t failed_servers{0};       ///< Servers crashed and not yet repaired.
  energy::RegimeHistogram regimes{};   ///< Awake servers per regime after the step.
  common::Joules interval_energy{};    ///< Cluster energy burned this interval.

  /// The paper's per-interval metric: in-cluster over local decisions
  /// (denominator floored at 1 to stay finite).
  [[nodiscard]] double decision_ratio() const {
    return static_cast<double>(in_cluster_decisions) /
           static_cast<double>(local_decisions == 0 ? 1 : local_decisions);
  }
};

/// The run's resilience samples, one per closed episode.  Unlike the
/// counters they are not split by interval: an episode can span many.
struct ResilienceSamples {
  common::RunningStats repair_time;       ///< Crash -> last displaced VM running (s).
  common::RunningStats failover_outage;   ///< Leaderless window an election closed (s).
  common::RunningStats heal_convergence;  ///< Heal -> reconciled (s).
};

/// End-of-interval fleet observation the recorder folds into the report.
struct FleetSnapshot {
  std::size_t sleeping_servers{0};
  std::size_t parked_servers{0};
  std::size_t deep_sleeping_servers{0};
  std::size_t failed_servers{0};
  energy::RegimeHistogram regimes{};
  common::Joules interval_energy{};
};

/// Read-only observer of one cluster's protocol execution, the hook the
/// observability layer (src/obs) builds on.  Attach via
/// Cluster::attach_observer; callbacks fire synchronously on the simulation
/// thread and must not mutate the cluster (observation never changes a
/// single simulated bit).
class ClusterObserver {
 public:
  virtual ~ClusterObserver() = default;
  /// A reallocation round is about to execute for `interval` at sim time
  /// `now`.
  virtual void on_interval_begin(std::size_t interval, common::Seconds now);
  /// One typed protocol event, forwarded as the round emits it.
  virtual void on_event(const ProtocolEvent& event);
  /// The completed report of the round that just executed.
  virtual void on_interval_end(const IntervalReport& report, common::Seconds now);
  /// Wall-clock duration of an internal phase ("round", "placement_search",
  /// "cstate_settle").  Only measured while observers are attached, so a
  /// bare cluster pays nothing.
  virtual void on_phase(std::string_view phase, double wall_seconds);
};

/// Aggregates one interval's protocol events into an IntervalReport and
/// forwards every event to the optional sink.  It also keeps the run's
/// totals (every closed report's counters) and resilience samples, the one
/// fault tally the resilience trailer and the metrics both read.
class IntervalRecorder {
 public:
  using EventSink = std::function<void(const ProtocolEvent&)>;

  /// Installs a sink receiving every typed event (tracing, metrics export).
  /// Pass nullptr to remove.  The sink observes events; it cannot veto them.
  void set_sink(EventSink sink) { sink_ = std::move(sink); }

  /// Stamps the recording window with interval `index`.  Counters are NOT
  /// reset here but in finish(): fault events (crashes, message retries) can
  /// fire on the event kernel *between* rounds, and they must accrue to the
  /// next report instead of being wiped when its round opens.
  void begin_interval(std::size_t index);

  // --- typed events, one method per protocol occurrence -------------------

  /// A vertical resize granted on `server` (a local decision).
  void local_decision(common::ServerId server);
  /// A live migration of cause `cause` into `target` (an in-cluster decision).
  void migration(MigrationCause cause, common::ServerId target);
  /// A fresh VM started on remote `target` (an in-cluster decision).
  void horizontal_start(common::ServerId target);
  /// Demand absorbed by a sibling cluster.
  void offloaded();
  /// `server` fully emptied this interval.
  void drained(common::ServerId server);
  /// `server` began a sleep transition.
  void sleep_begun(common::ServerId server);
  /// `server` began a wake transition.
  void wake_begun(common::ServerId server);
  /// `unserved` demand could not be served (an SLA violation).
  void sla_violation(double unserved, common::ServerId server = {});
  /// `server` operated above the QoS utilization cap.
  void qos_violation(common::ServerId server);
  /// `server` failed (fault injection).
  void server_crashed(common::ServerId server);
  /// `server` returned to service after a failure.
  void server_recovered(common::ServerId server);
  /// Leadership was re-elected onto `winner`; `outage` is the leaderless
  /// window the election closed, when the old leader was down.
  void failover(common::ServerId winner,
                std::optional<common::Seconds> outage = std::nullopt);
  /// A control message of `kind` bound for `server` was lost.
  void message_dropped(MessageKind kind, common::ServerId server);
  /// A previously dropped message of `kind` was re-sent to `server`.
  void message_retried(MessageKind kind, common::ServerId server);
  /// A crash-orphaned VM was restarted on `target`.
  void orphan_replaced(common::ServerId target);
  /// The last VM a crash displaced runs again, `repair_time` seconds after
  /// the crash (the MTTR sample).
  void crash_repaired(common::Seconds repair_time);
  /// A live migration off `source` aborted mid-copy.
  void migration_failed(common::ServerId source);
  /// `server` was derated to `capacity` of nominal.
  void derated(common::ServerId server, double capacity);
  /// The fabric split into `sides` disjoint server groups.
  void partition_started(std::size_t sides);
  /// The fabric healed (a reconciliation pass will merge the sides).
  void partition_healed();
  /// A stale-epoch command of `kind` bound for `server` was fenced.
  void command_fenced(MessageKind kind, common::ServerId server);
  /// Quorum shadow-restarted a minority-hosted VM on `target`.
  void shadow_started(common::ServerId target);
  /// Reconciliation retired a duplicate placement on `server`.
  void duplicate_resolved(common::ServerId server);
  /// Reconciliation kept the shadow on `server`: its original was lost.
  void shadow_adopted(common::ServerId server);
  /// Reconciliation converged `convergence` seconds after the heal.
  void reconciled(common::Seconds convergence, common::ServerId leader);
  /// The request engine's interval totals: `arrived` requests routed,
  /// `completed` finished (`violated` of them beyond their SLA), `dropped`
  /// lost to vanished VMs, `shed` refused by admission control, `failed`
  /// stranded by host crashes, `backlog` work still queued (cap-seconds).
  void request_batch(std::size_t arrived, std::size_t completed,
                     std::size_t violated, std::size_t dropped,
                     std::size_t shed, std::size_t failed, double backlog);
  /// `server` reversed a sleep/wake transition inside the flap window --
  /// the oscillation hysteresis exists to kill.
  void wake_sleep_flap(common::ServerId server);

  /// Folds the end-of-interval fleet observation in, adds the report's
  /// counters to the run totals, resets the counters for the next window
  /// and returns the completed report.
  [[nodiscard]] IntervalReport finish(const FleetSnapshot& snapshot);

  /// The report being assembled (tests / mid-interval inspection).
  [[nodiscard]] const IntervalReport& current() const { return report_; }

  /// Every closed report's counters summed (the obs::kReportCounters rows
  /// with a metric; the other fields stay zero).
  [[nodiscard]] const IntervalReport& totals() const { return totals_; }
  /// The run's resilience samples so far.
  [[nodiscard]] const ResilienceSamples& samples() const { return samples_; }

 private:
  void emit(ProtocolEvent event);

  IntervalReport report_{};
  IntervalReport totals_{};
  ResilienceSamples samples_;
  EventSink sink_;
};

}  // namespace eclb::cluster
