#include "cluster/index/regime_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/assert.h"

namespace eclb::cluster::index {

namespace {
/// The protocol's comparison epsilon (matches placement and the actions).
constexpr double kEps = 1e-9;
/// Safety margin between the approximate key distance and the exact scan
/// score.  The two differ only by rounding error of sums of values <= ~2
/// (a handful of ulps, ~1e-15); 1e-9 is nine orders of magnitude above that
/// and still far below any load difference the simulation produces.
constexpr double kSlop = 1e-9;

constexpr std::uint32_t kNoId = std::numeric_limits<std::uint32_t>::max();

std::optional<common::ServerId> next_in_set(
    const common::DenseBitset& ids, std::optional<common::ServerId> after) {
  const auto next =
      after.has_value() ? ids.next_after(after->value) : ids.first();
  if (!next.has_value()) return std::nullopt;
  return common::ServerId{static_cast<std::uint32_t>(*next)};
}
}  // namespace

RegimeIndex::RegimeIndex(std::span<const server::Server> servers)
    : servers_(servers) {
  rebuild();
}

void RegimeIndex::rebuild() {
  // A rebuild re-derives everything from live server state, so pending
  // dirty marks are subsumed; reset the pipeline's per-phase state.
  dirty_.resize(servers_.size());
  for (auto& r : erase_runs_) r.clear();
  for (auto& r : insert_runs_) r.clear();
  for (auto& b : by_key_) b.configure(servers_.size());
  for (auto& b : by_id_) b.resize(servers_.size());
  for (auto& b : sleepers_) b.resize(servers_.size());
  above_center_.resize(servers_.size());
  awake_empty_.resize(servers_.size());
  total_vms_ = 0;
  sleeping_ = 0;
  reporters_ = 0;
  cnt_effective_.fill(0);
  max_opt_halfwidth_ = 0.0;
  max_sopt_halfwidth_ = 0.0;

  rows_.assign(servers_.size(), server::ServerStateTable::IndexRow{});
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const auto& t = servers_[i].thresholds();
    const double center = t.optimal_center();
    max_opt_halfwidth_ = std::max(max_opt_halfwidth_, t.alpha_opt_high - center);
    max_sopt_halfwidth_ =
        std::max(max_sopt_halfwidth_, t.alpha_sopt_high - center);
    rows_[i] = servers_[i].state_table().index_row(servers_[i].slot());
    file_slot(static_cast<std::uint32_t>(i), slot_from_row(rows_[i]),
              KeyEdits::kInPlace);
  }
}

void RegimeIndex::server_state_changed(const server::Server& s) {
  const std::size_t i = s.id().index();
  ECLB_ASSERT(i < rows_.size(), "RegimeIndex: server index out of range");
  // The no-op gate: a notification whose packed row still matches the
  // mirror cannot change any index structure (Slot is a pure function of
  // the row), so it never even enters the dirty set.  Settle sweeps and
  // other fact-free notifications cost one 32-byte compare.
  if (s.state_table().index_row(s.slot()) == rows_[i]) return;
  dirty_.mark(static_cast<std::uint32_t>(i));
}

RegimeIndex::Slot RegimeIndex::slot_from_row(
    const server::ServerStateTable::IndexRow& row) {
  Slot slot;
  slot.load = row.load;
  slot.vm_count = row.vm_count;
  const bool awake = row.awake != 0;
  const bool alive = row.alive != 0;
  slot.awake = awake;
  slot.sleeping = alive && !awake;
  slot.effective = static_cast<std::int8_t>(row.effective);
  slot.key = slot.load - row.center;
  slot.regime = row.regime;
  slot.sleeper = row.sleep_depth;
  slot.above_center = awake && slot.load > row.center + kEps;
  slot.awake_empty = awake && slot.vm_count == 0;
  // Server::regime() is defined (and reported to the leader) whenever the
  // server is unfailed with settled state C0 -- including one still easing
  // into sleep -- so the report fan-in uses that wider condition via the
  // row's always-valid classified field.
  slot.reporter =
      alive &&
      row.cstate_src == static_cast<std::uint8_t>(energy::CState::kC0) &&
      row.classified != static_cast<std::int8_t>(
                            energy::regime_index(energy::Regime::kR3Optimal));
  return slot;
}

void RegimeIndex::file_slot(std::uint32_t id, const Slot& slot,
                            KeyEdits edits) {
  if (slot.regime >= 0) {
    if (edits == KeyEdits::kBatched) {
      insert_runs_[slot.regime].push_back({slot.key, id});
    } else {
      by_key_[slot.regime].insert({slot.key, id});
    }
    by_id_[slot.regime].insert(id);
  }
  if (slot.sleeper >= 0) sleepers_[slot.sleeper].insert(id);
  if (slot.above_center) above_center_.insert(id);
  if (slot.awake_empty) awake_empty_.insert(id);
  total_vms_ += slot.vm_count;
  if (slot.sleeping) ++sleeping_;
  if (slot.reporter) ++reporters_;
  ++cnt_effective_[static_cast<std::size_t>(slot.effective)];
}

void RegimeIndex::unfile_slot(std::uint32_t id, const Slot& slot,
                              KeyEdits edits) {
  if (slot.regime >= 0) {
    if (edits == KeyEdits::kBatched) {
      erase_runs_[slot.regime].push_back({slot.key, id});
    } else {
      by_key_[slot.regime].erase({slot.key, id});
    }
    by_id_[slot.regime].erase(id);
  }
  if (slot.sleeper >= 0) sleepers_[slot.sleeper].erase(id);
  if (slot.above_center) above_center_.erase(id);
  if (slot.awake_empty) awake_empty_.erase(id);
  total_vms_ -= slot.vm_count;
  if (slot.sleeping) --sleeping_;
  if (slot.reporter) --reporters_;
  --cnt_effective_[static_cast<std::size_t>(slot.effective)];
}

void RegimeIndex::apply_row(std::uint32_t id, KeyEdits edits) {
  const server::Server& s = servers_[id];
  const server::ServerStateTable::IndexRow& row =
      s.state_table().index_row(s.slot());
  // Row-mirror gate: a slot can be marked dirty and then mutate back to
  // exactly the state the index last applied (an ABA within the phase);
  // the record compare drops it before any slot derivation.
  if (row == rows_[id]) return;
  // The slot the index last filed is the one its mirrored row derives.
  const Slot cur = slot_from_row(rows_[id]);
  rows_[id] = row;
  const Slot fresh = slot_from_row(row);
  if (fresh == cur) return;
  // The most common change is a demand nudge that keeps the server in its
  // regime with every membership flag unchanged: then only the key-ordered
  // axis and the VM aggregate move, and the five bitsets plus the scalar
  // tallies stay untouched.  Both paths leave every structure bit-identical
  // to the full unfile+file below.
  Slot masked = fresh;
  masked.key = cur.key;
  masked.load = cur.load;
  masked.vm_count = cur.vm_count;
  if (masked == cur) {
    if (fresh.regime >= 0 && fresh.key != cur.key) {
      if (edits == KeyEdits::kBatched) {
        erase_runs_[fresh.regime].push_back({cur.key, id});
        insert_runs_[fresh.regime].push_back({fresh.key, id});
      } else {
        by_key_[fresh.regime].refile({cur.key, id}, {fresh.key, id});
      }
    }
    total_vms_ += fresh.vm_count;
    total_vms_ -= cur.vm_count;
  } else {
    unfile_slot(id, cur, edits);
    file_slot(id, fresh, edits);
  }
}

void RegimeIndex::flush_impl() {
  using Clock = std::chrono::steady_clock;
  const auto t0 = phase_timing_ ? Clock::now() : Clock::time_point{};

  // Ascending slot order makes the whole flush a pure function of the dirty
  // *set* (first-touch order forgotten), and pre-sorts the key-axis runs'
  // id tie-breaks.
  const std::span<std::uint32_t> dirty = dirty_.mutable_slots();
  std::sort(dirty.begin(), dirty.end());
  ++stats_.flushes;
  stats_.dirty_slots += dirty.size();

  // The dirty count selects only where key-axis edits go.  The cursor-walk
  // actions (shed, rebalance, drain) interleave queries with a handful of
  // mutations each, so most flushes carry a few dirty slots; for those an
  // in-place refile/insert/erase is cheapest.  Larger flushes (demand
  // evolution, request write-back) collect the edits into per-regime runs
  // and apply them sorted and grouped, one touch per bucket.  Sending every
  // flush through the runs measured 5-15% slower end to end.  Every
  // structure is canonical (sorted buckets, bitsets, integer aggregates),
  // so both routes reach the identical end state and the choice never
  // leaks into query answers.
  constexpr std::size_t kSmallFlushMax = 32;
  const KeyEdits edits = dirty.size() <= kSmallFlushMax ? KeyEdits::kInPlace
                                                         : KeyEdits::kBatched;
  for (const std::uint32_t id : dirty) apply_row(id, edits);
  const auto t1 = phase_timing_ ? Clock::now() : Clock::time_point{};

  // Apply the collected key-axis runs (empty after an in-place flush).
  // Sorting by (key, id) groups same-bucket ops contiguously (bucket_of is
  // monotone in the key) and fixes a deterministic order.
  for (std::size_t r = 0; r < energy::kRegimeCount; ++r) {
    auto& del = erase_runs_[r];
    auto& add = insert_runs_[r];
    if (del.empty() && add.empty()) continue;
    std::sort(del.begin(), del.end());
    std::sort(add.begin(), add.end());
    stats_.batch_refiles += del.size() + add.size();
    stats_.refile_runs += by_key_[r].apply_batch(del, add);
    del.clear();
    add.clear();
  }
  dirty_.clear();

  if (phase_timing_) {
    const auto t2 = Clock::now();
    stats_.diff_seconds += std::chrono::duration<double>(t1 - t0).count();
    stats_.refile_seconds += std::chrono::duration<double>(t2 - t1).count();
  }
}

std::size_t RegimeIndex::memory_bytes() const {
  flush();  // A mid-phase arena would under- or over-count the key axes.
  std::size_t bytes = counting_.live_bytes();
  for (const auto& b : by_key_) bytes += b.memory_bytes();
  for (const auto& b : by_id_) bytes += b.memory_bytes();
  for (const auto& b : sleepers_) bytes += b.memory_bytes();
  bytes += above_center_.memory_bytes() + awake_empty_.memory_bytes();
  bytes += rows_.capacity() * sizeof(server::ServerStateTable::IndexRow);
  bytes += dirty_.memory_bytes();
  for (const auto& r : erase_runs_) bytes += r.capacity() * sizeof(LoadKey);
  for (const auto& r : insert_runs_) bytes += r.capacity() * sizeof(LoadKey);
  return bytes;
}

energy::RegimeHistogram RegimeIndex::regime_histogram() const {
  flush();
  energy::RegimeHistogram hist{};
  for (std::size_t r = 0; r < energy::kRegimeCount; ++r) {
    hist[r] = by_id_[r].count();
  }
  return hist;
}

template <class Admit>
std::optional<common::ServerId> RegimeIndex::search(
    std::span<const BucketRef> buckets, double demand, common::ServerId exclude,
    const policy::PlacementFilter* filter, const Admit& admit) const {
  // Bidirectional expansion per bucket around the ideal key -demand (where
  // post-placement load would land exactly on the center): `up` walks keys
  // >= the pivot in increasing order, `down_pos` walks keys below it in
  // decreasing order.  At each step the globally closest unexamined
  // candidate (by key distance) is rescored with the exact scan
  // expression; the search stops once every remaining candidate is provably
  // worse than the best exact score found.
  // Each cursor keeps its two frontier candidates (key and id) materialized:
  // the pick loop below runs once per candidate examined and compares plain
  // doubles, touching the container only when a frontier advances.
  struct Cursor {
    const KeySet* keys;
    KeySet::const_iterator up;    ///< At the next upward candidate.
    KeySet::const_iterator down;  ///< At the next downward candidate.
    double up_key;
    double down_key;
    std::uint32_t up_id;
    std::uint32_t down_id;
    bool has_up;
    bool has_down;
    double hi_cutoff;
    int regime_idx;
  };
  std::array<Cursor, energy::kRegimeCount> cursors;
  std::size_t n_cursors = 0;
  const double pivot = -demand;
  for (const auto& b : buckets) {
    const auto& keys = by_key_[b.regime_idx];
    if (keys.empty()) continue;
    auto& c = cursors[n_cursors++];
    c.keys = &keys;
    c.up = keys.lower_bound(LoadKey{pivot, 0});
    c.has_up = c.up != keys.end();
    if (c.has_up) {
      c.up_key = c.up->first;
      c.up_id = c.up->second;
    }
    c.down = c.up;
    c.has_down = c.down != keys.begin();
    if (c.has_down) {
      --c.down;
      c.down_key = c.down->first;
      c.down_id = c.down->second;
    }
    c.hi_cutoff = b.hi_cutoff;
    c.regime_idx = b.regime_idx;
  }

  double best_score = std::numeric_limits<double>::infinity();
  std::uint32_t best_id = kNoId;
  for (;;) {
    double min_dist = std::numeric_limits<double>::infinity();
    Cursor* pick = nullptr;
    bool pick_up = false;
    for (std::size_t i = 0; i < n_cursors; ++i) {
      auto& c = cursors[i];
      if (c.has_up) {
        const double d = c.up_key + demand;
        if (d > c.hi_cutoff) {
          // Keys only grow upward; nothing beyond the cutoff is admissible.
          c.has_up = false;
        } else if (d < min_dist) {
          min_dist = d;
          pick = &c;
          pick_up = true;
        }
      }
      if (c.has_down) {
        const double d = -(c.down_key + demand);
        if (d < min_dist) {
          min_dist = d;
          pick = &c;
          pick_up = false;
        }
      }
    }
    if (pick == nullptr) break;
    if (best_id != kNoId && min_dist > best_score + kSlop) break;
    std::uint32_t id = 0;
    if (pick_up) {
      id = pick->up_id;
      ++pick->up;
      pick->has_up = pick->up != pick->keys->end();
      if (pick->has_up) {
        pick->up_key = pick->up->first;
        pick->up_id = pick->up->second;
      }
    } else {
      id = pick->down_id;
      if (pick->down == pick->keys->begin()) {
        pick->has_down = false;
      } else {
        --pick->down;
        pick->down_key = pick->down->first;
        pick->down_id = pick->down->second;
      }
    }
    if (id == exclude.value) continue;
    if (filter != nullptr && !filter->admits(common::ServerId{id})) continue;
    const std::optional<double> score = admit(servers_[id], pick->regime_idx);
    if (score.has_value() &&
        (*score < best_score || (*score == best_score && id < best_id))) {
      best_score = *score;
      best_id = id;
    }
  }
  if (best_id == kNoId) return std::nullopt;
  return common::ServerId{best_id};
}

std::optional<common::ServerId> RegimeIndex::find_tiered_target(
    double demand, common::ServerId exclude, policy::PlacementTier max_tier,
    const policy::PlacementFilter* filter) const {
  flush();
  // Per tier, bucket membership already encodes "awake" plus the tier's
  // regime restriction; the remaining admissibility condition (the
  // post-placement threshold) and the score are evaluated exactly.  The
  // regime containment is sound because post <= alpha implies
  // served = min(load, capacity) <= alpha, so the candidate's regime is at
  // most the alpha boundary's regime.
  for (int tier = 0; tier <= static_cast<int>(max_tier); ++tier) {
    const auto t = static_cast<policy::PlacementTier>(tier);
    BucketRef buckets[4];
    std::size_t n = 0;
    double cutoff = 0.0;
    int max_regime_idx = 0;
    switch (t) {
      case policy::PlacementTier::kLowRegimesOnly:
        max_regime_idx = 1;  // R1, R2
        cutoff = max_opt_halfwidth_ + kSlop;
        break;
      case policy::PlacementTier::kStayOptimal:
        max_regime_idx = 2;  // R1..R3
        cutoff = max_opt_halfwidth_ + kSlop;
        break;
      case policy::PlacementTier::kStaySuboptimal:
        max_regime_idx = 3;  // R1..R4
        cutoff = max_sopt_halfwidth_ + kSlop;
        break;
    }
    for (int r = 0; r <= max_regime_idx; ++r) buckets[n++] = {r, cutoff};
    const auto found = search(
        std::span<const BucketRef>(buckets, n), demand, exclude, filter,
        [&](const server::Server& s, int /*regime_idx*/) -> std::optional<double> {
          const double post = s.load() + demand;
          const auto& th = s.thresholds();
          const double bound = (t == policy::PlacementTier::kStaySuboptimal)
                                   ? th.alpha_sopt_high
                                   : th.alpha_opt_high;
          if (post > bound) return std::nullopt;
          return std::abs(s.load() + demand - th.optimal_center());
        });
    if (found.has_value()) return found;
  }
  return std::nullopt;
}

std::optional<common::ServerId> RegimeIndex::find_below_center_target(
    double demand, common::ServerId exclude,
    const policy::PlacementFilter* filter) const {
  flush();
  // Admissible targets end at or below their own center, so load < center:
  // every candidate is awake in R1..R3 and its key + demand is <= rounding
  // error -- the upward cutoff is just the slop margin.
  const BucketRef buckets[3] = {{0, kSlop}, {1, kSlop}, {2, kSlop}};
  return search(
      std::span<const BucketRef>(buckets, 3), demand, exclude, filter,
      [&](const server::Server& s, int /*regime_idx*/) -> std::optional<double> {
        const double post = s.load() + demand;
        if (post > s.thresholds().optimal_center()) return std::nullopt;
        return s.thresholds().optimal_center() - post;
      });
}

std::optional<common::ServerId> RegimeIndex::find_drain_target(
    const server::Server& donor, double demand,
    const policy::PlacementFilter* filter) const {
  flush();
  // The scan's conditions, re-checked exactly per candidate: strictly-uphill
  // load, R1/R2 peer or R3 staying below center, post within the optimal
  // region (+kEps).  The R3 bucket's cutoff encodes its tighter
  // below-center bound.
  const double donor_load = donor.load();
  const BucketRef buckets[3] = {{0, max_opt_halfwidth_ + kEps + kSlop},
                                {1, max_opt_halfwidth_ + kEps + kSlop},
                                {2, kEps + kSlop}};
  return search(
      std::span<const BucketRef>(buckets, 3), demand, donor.id(), filter,
      [&](const server::Server& t, int regime_idx) -> std::optional<double> {
        if (t.load() <= donor_load + kEps) return std::nullopt;  // uphill only
        const double post = t.load() + demand;
        if (regime_idx == 2 &&
            post > t.thresholds().optimal_center() + kEps) {
          return std::nullopt;
        }
        if (post > t.thresholds().alpha_opt_high + kEps) return std::nullopt;
        return std::abs(post - t.thresholds().optimal_center());
      });
}

std::optional<common::ServerId> RegimeIndex::pick_wake_candidate(
    const policy::PlacementFilter* filter) const {
  flush();
  // The scan keeps the first (lowest-id) server with the shallowest settled
  // sleep state; depth buckets in id order reproduce that directly, walking
  // past ids the filter rejects.
  for (const auto& depth : sleepers_) {
    for (auto id = next_in_set(depth, std::nullopt); id.has_value();
         id = next_in_set(depth, id)) {
      if (filter == nullptr || filter->admits(*id)) return id;
    }
  }
  return std::nullopt;
}

std::optional<common::ServerId> RegimeIndex::next_in_regime(
    energy::Regime r, std::optional<common::ServerId> after) const {
  flush();
  return next_in_set(by_id_[energy::regime_index(r)], after);
}

std::optional<common::ServerId> RegimeIndex::next_above_center(
    std::optional<common::ServerId> after) const {
  flush();
  return next_in_set(above_center_, after);
}

std::optional<common::ServerId> RegimeIndex::next_parked(
    std::optional<common::ServerId> after) const {
  flush();
  return next_in_set(sleepers_[0], after);
}

std::optional<common::ServerId> RegimeIndex::next_awake_empty(
    std::optional<common::ServerId> after) const {
  flush();
  return next_in_set(awake_empty_, after);
}

std::optional<std::string> RegimeIndex::self_check() const {
  flush();
  RegimeIndex fresh(servers_);
  std::ostringstream err;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const Slot a = slot_from_row(rows_[i]);
    const Slot b = slot_from_row(fresh.rows_[i]);
    if (a != b) {
      err << "slot " << i << " stale (regime " << int(a.regime) << " vs "
          << int(b.regime) << ", load " << a.load << " vs " << b.load << ")";
      return err.str();
    }
  }
  for (std::size_t r = 0; r < energy::kRegimeCount; ++r) {
    if (by_key_[r] != fresh.by_key_[r]) {
      err << "by_key[" << r << "] diverged";
      return err.str();
    }
    if (by_id_[r] != fresh.by_id_[r]) {
      err << "by_id[" << r << "] diverged";
      return err.str();
    }
  }
  for (std::size_t d = 0; d < sleepers_.size(); ++d) {
    if (sleepers_[d] != fresh.sleepers_[d]) {
      err << "sleepers[" << d << "] diverged";
      return err.str();
    }
  }
  if (above_center_ != fresh.above_center_) return "above_center diverged";
  if (awake_empty_ != fresh.awake_empty_) return "awake_empty diverged";
  if (total_vms_ != fresh.total_vms_) return "total_vms diverged";
  if (sleeping_ != fresh.sleeping_) return "sleeping count diverged";
  if (reporters_ != fresh.reporters_) return "reporter count diverged";
  if (cnt_effective_ != fresh.cnt_effective_) return "effective counts diverged";
  return std::nullopt;
}

}  // namespace eclb::cluster::index
