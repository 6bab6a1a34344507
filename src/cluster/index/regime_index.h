// Incremental regime index: the scan-free backing store for the protocol
// hot path.
//
// Every protocol action used to re-derive "which servers are in regime X,
// ordered how" by scanning all N servers per query, making one reallocation
// round O(N * queries).  The index maintains that information incrementally:
// servers notify it on every state change (ServerStateListener), and it
// keeps
//   * per-regime buckets of *awake* servers, twice: ordered by id (the
//     protocol's deterministic visit order) and ordered by load distance to
//     the server's own optimal-region center (the placement score axis),
//   * sleeper buckets per settled sleep depth (C1/C3/C6), ordered by id,
//   * membership sets for the rebalance donors (awake above center) and the
//     drain/park candidates (awake and empty),
//   * running integer aggregates (VM count, sleeping/parked/deep counts,
//     regime-report fan-in) that previously cost one fleet scan each per
//     interval snapshot.
//
// Bit-identity contract: every query reproduces the corresponding full
// O(N) scan of the fleet *exactly* -- same winner, same tie-breaks, same
// floating-point comparisons -- so the protocol's decisions are those of the
// paper's scan-based leader.  The scans live on as the test-only oracle
// (tests/support/scan_oracle.h).  Two techniques make that possible:
//   1. Candidate enumeration is approximate, scoring is exact.  The ordered
//      buckets are keyed by (load - center), which tracks the scan's score
//      |load + demand - center| only up to FP rounding.  Searches therefore
//      expand outward from the ideal key, re-compute the scan's score
//      expression for every candidate examined, and only stop once the key
//      distance provably exceeds the best exact score by kSlop (a margin
//      nine orders of magnitude above the achievable rounding error).
//   2. Cursor queries return a *superset* in id order and the actions keep
//      their visit-time condition checks, so mid-pass mutations (a donor
//      shedding out of its regime) resolve identically to a scan-and-test
//      loop.
//
// Every search takes an optional policy::PlacementFilter: while a fabric is
// partitioned the protocol confines searches to one side, and the filter
// rejects other-side ids as candidates.  The winner is still the exact
// (score, id) minimum over the admitted set, so a filtered search equals
// the filtered scan.
//
// Storage (this PR): the id-ordered membership sets are dense bitsets over
// the slot universe (one word write per refile, word-scan cursors), and the
// load-keyed search axes are bucketed sorted vectors (KeyBucketSet) whose
// storage comes from a pooled arena with a counting upstream -- refiling a
// server is a short memmove in a small bucket instead of two red-black tree
// walks, and the index can report its exact heap footprint (memory_bytes).
#pragma once

#include <array>
#include <cstdint>
#include <memory_resource>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/index/dirty_set.h"
#include "cluster/index/key_bucket_set.h"
#include "cluster/index/pipeline_stats.h"
#include "common/arena.h"
#include "common/dense_bitset.h"
#include "common/types.h"
#include "energy/cstates.h"
#include "energy/regimes.h"
#include "policy/placement.h"
#include "server/server.h"

namespace eclb::cluster::index {

/// The incremental index over one cluster's server array.  Install with
/// Server::set_state_listener on every server; the span must stay valid and
/// stable (Cluster reserves the vector up front) for the index's lifetime.
class RegimeIndex final : public server::ServerStateListener {
 public:
  /// Builds the index from the servers' current state.
  explicit RegimeIndex(std::span<const server::Server> servers);

  /// ServerStateListener: records the change as a slot-level dirty mark in
  /// the per-phase DirtySet; the deferred refile happens in one batch at
  /// the next flush().
  void server_state_changed(const server::Server& s) override;

  // --- phase-coalesced pipeline -------------------------------------------

  /// Applies every pending dirty mark: an old/new slot diff of each dirty
  /// server's IndexRow (the row Server::sync_derived already classified),
  /// then -- for large flushes -- sorted grouped refile runs into the key
  /// axes (each bucket touched once).  Every public query calls
  /// this first, so an index answer is always computed on exactly the state
  /// applying each notification at its instant would have shown (the state
  /// self_check's fresh rebuild reproduces).  No-op when nothing is dirty;
  /// cheap enough to sit on every query.
  void flush() const {
    if (dirty_.empty()) return;
    // Logically const: flushing publishes already-committed server state
    // into the index's internal structures and changes no query answer.
    const_cast<RegimeIndex*>(this)->flush_impl();
  }

  /// Enables wall-clock timing of the flush phases (diff/refile in
  /// pipeline_stats()).  Off by default so the hot path never reads a clock.
  void set_phase_timing(bool on) { phase_timing_ = on; }

  /// Cumulative pipeline counters since construction.
  [[nodiscard]] const PipelineStats& pipeline_stats() const { return stats_; }

  /// Rebuilds everything from scratch (constructor body; test hook).
  void rebuild();

  /// Exact heap bytes held by the index (bitsets, slot mirror, and the
  /// arena feeding the key-ordered search trees).
  [[nodiscard]] std::size_t memory_bytes() const;

  // --- aggregates (all O(1) after the implicit flush) ---------------------

  /// Total VM count across the cluster.
  [[nodiscard]] std::size_t total_vms() const {
    flush();
    return total_vms_;
  }
  /// Non-failed servers that are not awake (== Cluster::sleeping_count).
  [[nodiscard]] std::size_t sleeping_count() const {
    flush();
    return sleeping_;
  }
  /// Servers whose effective C-state is C1.
  [[nodiscard]] std::size_t parked_count() const {
    flush();
    return cnt_effective_[static_cast<std::size_t>(energy::CState::kC1)];
  }
  /// Servers whose effective C-state is C3 or C6.
  [[nodiscard]] std::size_t deep_sleeping_count() const {
    flush();
    return cnt_effective_[static_cast<std::size_t>(energy::CState::kC3)] +
           cnt_effective_[static_cast<std::size_t>(energy::CState::kC6)];
  }
  /// Histogram of awake servers over the five regimes.
  [[nodiscard]] energy::RegimeHistogram regime_histogram() const;
  /// Servers that report their regime to the leader each interval (regime
  /// defined and != R3; includes servers still settling into sleep, exactly
  /// like a RegimeReport scan).
  [[nodiscard]] std::size_t regime_reporter_count() const {
    flush();
    return reporters_;
  }

  // --- exact-equivalent placement searches --------------------------------
  //
  // `exclude` is never a candidate; `filter` (when given) admits only the
  // servers of one partition side.

  /// The paper's tiered search: widens from kLowRegimesOnly up to
  /// `max_tier`; within a tier the winner minimizes the post-placement
  /// distance to its own optimal-region center (concentrating load).
  [[nodiscard]] std::optional<common::ServerId> find_tiered_target(
      double demand, common::ServerId exclude, policy::PlacementTier max_tier,
      const policy::PlacementFilter* filter = nullptr) const;

  /// A target able to absorb `demand` while ending at or below its own
  /// optimal center; fullest viable target wins.  Used by the
  /// even-distribution rebalance: a VM only moves from an above-center
  /// server to one that stays below center, so rebalancing converges.
  [[nodiscard]] std::optional<common::ServerId> find_below_center_target(
      double demand, common::ServerId exclude,
      const policy::PlacementFilter* filter = nullptr) const;

  /// The consolidation (drain) uphill search: an R1/R2 peer, or an R3 peer
  /// staying below its center, with strictly more load than `donor`, ending
  /// within its optimal region; fullest-fit (closest to its own center)
  /// wins.
  [[nodiscard]] std::optional<common::ServerId> find_drain_target(
      const server::Server& donor, double demand,
      const policy::PlacementFilter* filter = nullptr) const;

  /// The leader's wake pick: the lowest-id settled sleeper in the
  /// shallowest occupied sleep state (servers mid-transition are not
  /// wakeable).
  [[nodiscard]] std::optional<common::ServerId> pick_wake_candidate(
      const policy::PlacementFilter* filter = nullptr) const;

  // --- ordered cursors (id order; supersets of the actions' visit sets) ---

  /// Next awake server in `r` with id greater than `after` (nullopt = from
  /// the start).  Returns nullopt when exhausted.
  [[nodiscard]] std::optional<common::ServerId> next_in_regime(
      energy::Regime r, std::optional<common::ServerId> after) const;
  /// Next awake server with load above its optimal center (+kEps).
  [[nodiscard]] std::optional<common::ServerId> next_above_center(
      std::optional<common::ServerId> after) const;
  /// Next settled C1 sleeper.
  [[nodiscard]] std::optional<common::ServerId> next_parked(
      std::optional<common::ServerId> after) const;
  /// Next awake server hosting no VMs.
  [[nodiscard]] std::optional<common::ServerId> next_awake_empty(
      std::optional<common::ServerId> after) const;

  // --- verification hooks --------------------------------------------------

  /// Full consistency audit against a fresh classification of every server;
  /// returns a description of the first mismatch, nullopt when coherent.
  [[nodiscard]] std::optional<std::string> self_check() const;

 private:
  /// Everything the index knows about one server, derived from
  /// time-independent accessors only (see Server::transition_pending).
  struct Slot {
    double key{0.0};          ///< load - optimal_center (bucket sort key).
    double load{0.0};
    std::uint32_t vm_count{0};
    std::int8_t regime{-1};   ///< 0-based regime when awake, else -1.
    std::int8_t sleeper{-1};  ///< Settled sleep depth (C1->0,C3->1,C6->2), else -1.
    std::int8_t effective{0};  ///< effective_cstate as an int.
    bool awake{false};
    bool sleeping{false};     ///< !failed && !awake.
    bool above_center{false};
    bool awake_empty{false};
    bool reporter{false};     ///< Counts toward the regime-report fan-in.

    friend bool operator==(const Slot&, const Slot&) = default;
  };

  /// (key, id) pairs; the id disambiguates equal keys.
  using LoadKey = std::pair<double, std::uint32_t>;
  /// Key-ordered search axis: bucketed sorted vectors over the arena.
  using KeySet = KeyBucketSet;

  /// One bucket in a placement search: which regime, and the largest key
  /// distance any admissible candidate can have (beyond it the upward scan
  /// stops; the margin over the true per-server bound is baked in).
  struct BucketRef {
    int regime_idx;
    double hi_cutoff;
  };

  /// Derives a Slot from a packed state-table record.  Slot is a pure
  /// function of the row -- the invariant the notification gate relies on:
  /// when a server's current row equals the mirrored row the index last
  /// applied (rows_), no index structure can need updating.
  [[nodiscard]] static Slot slot_from_row(
      const server::ServerStateTable::IndexRow& row);

  /// Where a flush sends key-axis edits: straight into the buckets, or
  /// into the per-regime runs KeyBucketSet::apply_batch folds in at the end
  /// of the flush.  Bitsets and scalar aggregates are always written in
  /// place (one word each).
  enum class KeyEdits : bool { kInPlace, kBatched };
  /// Re-derives server `id`'s Slot from its current IndexRow and moves it
  /// between the index's structures.
  void apply_row(std::uint32_t id, KeyEdits edits);
  void file_slot(std::uint32_t id, const Slot& slot, KeyEdits edits);
  void unfile_slot(std::uint32_t id, const Slot& slot, KeyEdits edits);

  /// The phase barrier behind flush(): applies every dirty row in ascending
  /// slot order, then the collected key-axis runs.
  void flush_impl();

  /// Bidirectional best-score search over `buckets` around the ideal key
  /// -demand.  `admit(server, regime_idx)` returns the *exact scan score*
  /// when the candidate is admissible, nullopt otherwise; `exclude` and ids
  /// `filter` rejects are skipped before it.  The winner is the exact
  /// lexicographic minimum of (score, id) -- the scan's answer.
  template <class Admit>
  [[nodiscard]] std::optional<common::ServerId> search(
      std::span<const BucketRef> buckets, double demand,
      common::ServerId exclude, const policy::PlacementFilter* filter,
      const Admit& admit) const;

  std::span<const server::Server> servers_;
  std::vector<Slot> slots_;
  /// Mirror of each server's packed IndexRow as of the last time the index
  /// applied it (rebuild or flush).  A notification whose current row
  /// equals the mirror is a no-op for every structure the index keeps, so
  /// the dirty-mark path drops it after one 32-byte compare -- settle
  /// sweeps and other fact-free notifications never reach the refile
  /// machinery.
  std::vector<server::ServerStateTable::IndexRow> rows_;

  // --- coalesced-pipeline state -------------------------------------------

  bool phase_timing_{false};
  DirtySet dirty_;
  PipelineStats stats_;
  /// Per-regime key-axis mutations collected during one flush's diff pass,
  /// applied as sorted grouped runs at the end of the phase.
  std::array<std::vector<LoadKey>, energy::kRegimeCount> erase_runs_;
  std::array<std::vector<LoadKey>, energy::kRegimeCount> insert_runs_;

  /// Arena for the key sets: the pool recycles bucket storage across
  /// refiles, the counting upstream makes memory_bytes() exact.  Declared
  /// before the sets (construction order) and destroyed after them.
  common::CountingMemoryResource counting_;
  std::pmr::unsynchronized_pool_resource pool_{&counting_};

  std::array<KeySet, energy::kRegimeCount> by_key_{
      KeySet{&pool_}, KeySet{&pool_}, KeySet{&pool_}, KeySet{&pool_},
      KeySet{&pool_}};
  std::array<common::DenseBitset, energy::kRegimeCount> by_id_;
  /// Settled sleepers by depth: [0]=C1, [1]=C3, [2]=C6.
  std::array<common::DenseBitset, 3> sleepers_;
  common::DenseBitset above_center_;
  common::DenseBitset awake_empty_;

  std::size_t total_vms_{0};
  std::size_t sleeping_{0};
  std::size_t reporters_{0};
  std::array<std::size_t, energy::kCStateCount> cnt_effective_{};

  /// Fleet-wide maxima of (alpha_opt_high - center) and
  /// (alpha_sopt_high - center): sound upward cutoffs for the searches.
  double max_opt_halfwidth_{0.0};
  double max_sopt_halfwidth_{0.0};
};

}  // namespace eclb::cluster::index
