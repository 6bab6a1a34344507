// Structure-of-arrays storage for every server's hot state.
//
// The leader's interval work -- placement scans, energy stepping, the
// demand-evolution sweep -- reads a handful of scalar fields from every
// server in the fleet.  With those fields embedded in heap-resident Server
// objects the sweep is bound by pointer-chasing; here they live in
// contiguous parallel arrays indexed by a dense slot, so a fleet-wide pass
// touches only the columns it needs.
//
// Division of labour: Server keeps identity and ownership (the VM list, the
// power model, the energy meter, the C-state machine, the regime
// thresholds) and reads/writes its hot fields through this table.  Derived
// state (awake, static power, the packed IndexRow) is synced by Server at
// its notification points, so between mutations every column is exact.
// Each fact has one home: a fleet sweep's column, or the IndexRow the
// regime index reads -- the only input the index has.
//
// Slot mapping: the cluster allocates slots in ServerId order during
// population, so slot == ServerId::index() for cluster-owned fleets.  A
// standalone Server (unit tests) owns a private single-slot table; either
// way a Server's slot is fixed for life and slots are never recycled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace eclb::server {

/// Dense index of one server's row in the table.
using ServerSlot = std::uint32_t;

/// Parallel arrays of per-server hot state.  All mutation goes through
/// Server; readers may take column spans and iterate the fleet directly.
class ServerStateTable {
 public:
  /// Sentinel for IndexRow's int8 fields (regime, sleep_depth) when not
  /// applicable.
  static constexpr std::int8_t kNone = -1;

  /// Every fact the regime index reads about one server, packed into one
  /// aligned record: the index's only input (RegimeIndex::slot_from_row).
  /// A refile is single-slot by nature, so it reads this one record rather
  /// than scattered columns.  Server::sync_derived rewrites it at every
  /// notification point, so it is never stale when a listener runs.
  struct alignas(32) IndexRow {
    double load{0.0};
    /// Center of the optimal regime (RegimeThresholds::optimal_center).
    double center{0.0};
    std::uint32_t vm_count{0};
    /// 0-based regime of the served load while awake; kNone otherwise.
    std::int8_t regime{kNone};
    /// 0-based regime of the served load regardless of wake state (the
    /// report fan-in wants it for a server still easing into sleep).
    std::int8_t classified{0};
    /// Settled sleep depth: C1 -> 0, C3 -> 1, C6 -> 2; kNone when awake,
    /// failed, or mid-transition.
    std::int8_t sleep_depth{kNone};
    /// Settled (source) C-state as its enum value 0..3.
    std::uint8_t cstate_src{0};
    /// Committed C-state: the transition target while pending, else the
    /// settled state (Server::effective_cstate).
    std::uint8_t effective{0};
    std::uint8_t awake{1};
    std::uint8_t alive{1};

    /// Field-wise (padding excluded): lets the index's notification gate
    /// detect "nothing the index reads has moved" in one record compare.
    friend bool operator==(const IndexRow&, const IndexRow&) = default;
  };

  /// Pre-allocates capacity for `n` slots (no slots are created).
  void reserve(std::size_t n) {
    load_.reserve(n);
    capacity_.reserve(n);
    static_power_.reserve(n);
    vm_count_.reserve(n);
    alive_.reserve(n);
    awake_.reserve(n);
    pending_.reserve(n);
    index_row_.reserve(n);
  }

  /// Appends a zero-initialized slot and returns its index.  The owning
  /// Server fills it in before anything reads it.
  ServerSlot add_slot() {
    const auto slot = static_cast<ServerSlot>(load_.size());
    load_.push_back(0.0);
    capacity_.push_back(1.0);
    static_power_.push_back(0.0);
    vm_count_.push_back(0);
    alive_.push_back(1);
    awake_.push_back(1);
    pending_.push_back(0);
    index_row_.push_back(IndexRow{});
    return slot;
  }

  [[nodiscard]] std::size_t size() const { return load_.size(); }

  // --- per-slot reads -------------------------------------------------------

  [[nodiscard]] double load(ServerSlot s) const { return load_[s]; }
  [[nodiscard]] double capacity(ServerSlot s) const { return capacity_[s]; }
  /// Instantaneous power in watts while no transition is pending (failed
  /// servers: 0; parked servers: hold power; awake servers: f(served load)).
  /// Stale while pending -- the time-dependent Server::power applies then.
  [[nodiscard]] double static_power(ServerSlot s) const { return static_power_[s]; }
  [[nodiscard]] std::uint32_t vm_count(ServerSlot s) const { return vm_count_[s]; }
  /// 1 unless crashed.
  [[nodiscard]] bool alive(ServerSlot s) const { return alive_[s] != 0; }
  /// 1 iff alive, settled in C0, no transition pending (time-independent:
  /// equals Server::awake(now) for every now between mutations).
  [[nodiscard]] bool awake(ServerSlot s) const { return awake_[s] != 0; }
  /// 1 while a C-state transition target is committed and not settled.
  [[nodiscard]] bool transition_pending(ServerSlot s) const { return pending_[s] != 0; }
  /// The packed single-slot read for the regime index (see IndexRow).
  [[nodiscard]] const IndexRow& index_row(ServerSlot s) const {
    return index_row_[s];
  }

  // --- per-slot writes (Server only) ----------------------------------------

  void set_load(ServerSlot s, double v) { load_[s] = v; }
  void set_capacity(ServerSlot s, double v) { capacity_[s] = v; }
  void set_static_power(ServerSlot s, double v) { static_power_[s] = v; }
  void set_vm_count(ServerSlot s, std::uint32_t v) { vm_count_[s] = v; }
  void set_alive(ServerSlot s, bool v) { alive_[s] = v ? 1 : 0; }
  void set_awake(ServerSlot s, bool v) { awake_[s] = v ? 1 : 0; }
  void set_transition_pending(ServerSlot s, bool v) { pending_[s] = v ? 1 : 0; }
  void set_index_row(ServerSlot s, const IndexRow& row) { index_row_[s] = row; }

  // --- column views (fleet-wide passes) -------------------------------------

  [[nodiscard]] std::span<const double> loads() const { return load_; }
  [[nodiscard]] std::span<const double> capacities() const { return capacity_; }
  [[nodiscard]] std::span<const std::uint32_t> vm_counts() const { return vm_count_; }
  [[nodiscard]] std::span<const std::uint8_t> alive_flags() const { return alive_; }
  [[nodiscard]] std::span<const std::uint8_t> awake_flags() const { return awake_; }
  [[nodiscard]] std::span<const std::uint8_t> pending_flags() const { return pending_; }

  /// Heap bytes held by the columns (arena accounting).
  [[nodiscard]] std::size_t memory_bytes() const {
    return (load_.capacity() + capacity_.capacity() + static_power_.capacity()) *
               sizeof(double) +
           vm_count_.capacity() * sizeof(std::uint32_t) + alive_.capacity() +
           awake_.capacity() + pending_.capacity() +
           index_row_.capacity() * sizeof(IndexRow);
  }

 private:
  std::vector<double> load_;
  std::vector<double> capacity_;
  std::vector<double> static_power_;
  std::vector<std::uint32_t> vm_count_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint8_t> awake_;
  std::vector<std::uint8_t> pending_;
  std::vector<IndexRow> index_row_;
};

}  // namespace eclb::server
