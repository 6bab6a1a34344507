// Structure-of-arrays storage for every server's hot state.
//
// The leader's interval work -- regime classification, placement scans,
// energy stepping -- reads a handful of scalar fields from every server in
// the fleet.  With those fields embedded in heap-resident Server objects the
// sweep is bound by pointer-chasing; here they live in contiguous parallel
// arrays indexed by a dense slot, so a fleet-wide pass touches only the
// columns it needs and auto-vectorizes (see energy/regime_batch.h).
//
// Division of labour: Server keeps identity and ownership (the VM list, the
// power model, the energy meter, the C-state machine) and reads/writes its
// hot fields through this table.  Derived columns (awake, regime, static
// power, ...) are synced by Server at its notification points, so between
// mutations every column is exact -- the regime index and the batch kernels
// consume them without revalidation.
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
  /// Sentinel for the int8 columns (regime, sleep_depth) when not applicable.
  static constexpr std::int8_t kNone = -1;

  /// Packed mirror of exactly the fields the regime index reads per
  /// notification (RegimeIndex::classify).  The SoA columns are ideal for
  /// fleet-wide sweeps but cost ~10 scattered cache lines for a single-slot
  /// read; a refile is single-slot by nature, so it reads this one aligned
  /// record instead.  Server::sync_derived rewrites it alongside the scalar
  /// columns at every notification point, so it is never stale when a
  /// listener runs.
  struct alignas(32) IndexRow {
    double load{0.0};
    double center{0.0};
    std::uint32_t vm_count{0};
    std::int8_t regime{kNone};
    std::int8_t classified{0};
    std::int8_t sleep_depth{kNone};
    std::uint8_t cstate_src{0};
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
    a_sopt_low_.reserve(n);
    a_opt_low_.reserve(n);
    a_opt_high_.reserve(n);
    a_sopt_high_.reserve(n);
    center_.reserve(n);
    static_power_.reserve(n);
    vm_count_.reserve(n);
    alive_.reserve(n);
    awake_.reserve(n);
    pending_.reserve(n);
    cstate_src_.reserve(n);
    effective_cstate_.reserve(n);
    regime_.reserve(n);
    classified_.reserve(n);
    sleep_depth_.reserve(n);
    index_row_.reserve(n);
  }

  /// Appends a zero-initialized slot and returns its index.  The owning
  /// Server fills it in before anything reads it.
  ServerSlot add_slot() {
    const auto slot = static_cast<ServerSlot>(load_.size());
    load_.push_back(0.0);
    capacity_.push_back(1.0);
    a_sopt_low_.push_back(0.0);
    a_opt_low_.push_back(0.0);
    a_opt_high_.push_back(0.0);
    a_sopt_high_.push_back(0.0);
    center_.push_back(0.0);
    static_power_.push_back(0.0);
    vm_count_.push_back(0);
    alive_.push_back(1);
    awake_.push_back(1);
    pending_.push_back(0);
    cstate_src_.push_back(0);
    effective_cstate_.push_back(0);
    regime_.push_back(kNone);
    classified_.push_back(0);
    sleep_depth_.push_back(kNone);
    index_row_.push_back(IndexRow{});
    return slot;
  }

  [[nodiscard]] std::size_t size() const { return load_.size(); }

  // --- per-slot reads -------------------------------------------------------

  [[nodiscard]] double load(ServerSlot s) const { return load_[s]; }
  [[nodiscard]] double capacity(ServerSlot s) const { return capacity_[s]; }
  [[nodiscard]] double alpha_sopt_low(ServerSlot s) const { return a_sopt_low_[s]; }
  [[nodiscard]] double alpha_opt_low(ServerSlot s) const { return a_opt_low_[s]; }
  [[nodiscard]] double alpha_opt_high(ServerSlot s) const { return a_opt_high_[s]; }
  [[nodiscard]] double alpha_sopt_high(ServerSlot s) const { return a_sopt_high_[s]; }
  /// Center of the optimal regime (cached optimal_center()).
  [[nodiscard]] double center(ServerSlot s) const { return center_[s]; }
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
  /// Settled (source) C-state as its enum value 0..3.
  [[nodiscard]] std::uint8_t cstate_src(ServerSlot s) const { return cstate_src_[s]; }
  /// Committed C-state: the transition target while pending, else the
  /// settled state (Server::effective_cstate).
  [[nodiscard]] std::uint8_t effective_cstate(ServerSlot s) const {
    return effective_cstate_[s];
  }
  /// 0-based regime of the served load while awake; kNone otherwise.
  [[nodiscard]] std::int8_t regime(ServerSlot s) const { return regime_[s]; }
  /// 0-based regime of the served load regardless of wake state (always
  /// valid for an alive server; the reporter logic wants this).
  [[nodiscard]] std::int8_t classified(ServerSlot s) const { return classified_[s]; }
  /// Settled sleep depth: C1 -> 0, C3 -> 1, C6 -> 2; kNone when awake,
  /// failed, or mid-transition.
  [[nodiscard]] std::int8_t sleep_depth(ServerSlot s) const { return sleep_depth_[s]; }
  /// The packed single-slot read for the regime index (see IndexRow).
  [[nodiscard]] const IndexRow& index_row(ServerSlot s) const {
    return index_row_[s];
  }

  // --- per-slot writes (Server only) ----------------------------------------

  void set_load(ServerSlot s, double v) { load_[s] = v; }
  void set_capacity(ServerSlot s, double v) { capacity_[s] = v; }
  void set_thresholds(ServerSlot s, double sopt_low, double opt_low,
                      double opt_high, double sopt_high, double center) {
    a_sopt_low_[s] = sopt_low;
    a_opt_low_[s] = opt_low;
    a_opt_high_[s] = opt_high;
    a_sopt_high_[s] = sopt_high;
    center_[s] = center;
  }
  void set_static_power(ServerSlot s, double v) { static_power_[s] = v; }
  void set_vm_count(ServerSlot s, std::uint32_t v) { vm_count_[s] = v; }
  void set_alive(ServerSlot s, bool v) { alive_[s] = v ? 1 : 0; }
  void set_awake(ServerSlot s, bool v) { awake_[s] = v ? 1 : 0; }
  void set_transition_pending(ServerSlot s, bool v) { pending_[s] = v ? 1 : 0; }
  void set_cstate_src(ServerSlot s, std::uint8_t v) { cstate_src_[s] = v; }
  void set_effective_cstate(ServerSlot s, std::uint8_t v) { effective_cstate_[s] = v; }
  void set_regime(ServerSlot s, std::int8_t v) { regime_[s] = v; }
  void set_classified(ServerSlot s, std::int8_t v) { classified_[s] = v; }
  void set_sleep_depth(ServerSlot s, std::int8_t v) { sleep_depth_[s] = v; }
  void set_index_row(ServerSlot s, const IndexRow& row) { index_row_[s] = row; }

  // --- column views (fleet-wide passes) -------------------------------------

  [[nodiscard]] std::span<const double> loads() const { return load_; }
  [[nodiscard]] std::span<const double> capacities() const { return capacity_; }
  [[nodiscard]] std::span<const double> alpha_sopt_lows() const { return a_sopt_low_; }
  [[nodiscard]] std::span<const double> alpha_opt_lows() const { return a_opt_low_; }
  [[nodiscard]] std::span<const double> alpha_opt_highs() const { return a_opt_high_; }
  [[nodiscard]] std::span<const double> alpha_sopt_highs() const { return a_sopt_high_; }
  [[nodiscard]] std::span<const std::uint32_t> vm_counts() const { return vm_count_; }
  [[nodiscard]] std::span<const std::uint8_t> alive_flags() const { return alive_; }
  [[nodiscard]] std::span<const std::uint8_t> awake_flags() const { return awake_; }
  [[nodiscard]] std::span<const std::uint8_t> pending_flags() const { return pending_; }

  /// Heap bytes held by the columns (arena accounting).
  [[nodiscard]] std::size_t memory_bytes() const {
    return (load_.capacity() + capacity_.capacity() + a_sopt_low_.capacity() +
            a_opt_low_.capacity() + a_opt_high_.capacity() +
            a_sopt_high_.capacity() + center_.capacity() +
            static_power_.capacity()) * sizeof(double) +
           vm_count_.capacity() * sizeof(std::uint32_t) +
           alive_.capacity() + awake_.capacity() + pending_.capacity() +
           cstate_src_.capacity() + effective_cstate_.capacity() +
           regime_.capacity() + classified_.capacity() + sleep_depth_.capacity() +
           index_row_.capacity() * sizeof(IndexRow);
  }

 private:
  std::vector<double> load_;
  std::vector<double> capacity_;
  std::vector<double> a_sopt_low_;
  std::vector<double> a_opt_low_;
  std::vector<double> a_opt_high_;
  std::vector<double> a_sopt_high_;
  std::vector<double> center_;
  std::vector<double> static_power_;
  std::vector<std::uint32_t> vm_count_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint8_t> awake_;
  std::vector<std::uint8_t> pending_;
  std::vector<std::uint8_t> cstate_src_;
  std::vector<std::uint8_t> effective_cstate_;
  std::vector<std::int8_t> regime_;
  std::vector<std::int8_t> classified_;
  std::vector<std::int8_t> sleep_depth_;
  std::vector<IndexRow> index_row_;
};

}  // namespace eclb::server
