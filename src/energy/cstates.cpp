#include "energy/cstates.h"

#include <deque>
#include <mutex>

#include "common/assert.h"

namespace eclb::energy {

std::string_view to_string(CState s) {
  switch (s) {
    case CState::kC0: return "C0";
    case CState::kC1: return "C1";
    case CState::kC3: return "C3";
    case CState::kC6: return "C6";
  }
  return "C?";
}

const std::array<CStateSpec, kCStateCount>& default_cstate_table() {
  static const std::array<CStateSpec, kCStateCount> kTable = {{
      {CState::kC0, 1.00, common::Seconds{0.0}, common::Seconds{0.0}, 1.0},
      {CState::kC1, 0.30, common::Seconds{0.001}, common::Seconds{0.001}, 1.0},
      {CState::kC3, 0.05, common::Seconds{1.0}, common::Seconds{30.0}, 0.95},
      {CState::kC6, 0.01, common::Seconds{5.0}, common::Seconds{180.0}, 0.95},
  }};
  return kTable;
}

const CStateSpec& spec_for(const std::array<CStateSpec, kCStateCount>& table, CState s) {
  for (const auto& spec : table) {
    if (spec.state == s) return spec;
  }
  ECLB_ASSERT(false, "spec_for: state missing from table");
  return table[0];  // unreachable
}

namespace {

bool specs_equal(const CStateSpec& a, const CStateSpec& b) {
  return a.state == b.state && a.hold_power_fraction == b.hold_power_fraction &&
         a.entry_latency.value == b.entry_latency.value &&
         a.wake_latency.value == b.wake_latency.value &&
         a.wake_power_fraction == b.wake_power_fraction;
}

bool tables_equal(const std::array<CStateSpec, kCStateCount>& a,
                  const std::array<CStateSpec, kCStateCount>& b) {
  for (std::size_t i = 0; i < kCStateCount; ++i) {
    if (!specs_equal(a[i], b[i])) return false;
  }
  return true;
}

/// The process-wide copy of `table`: the default table itself, or one
/// interned entry per distinct custom table, kept for the life of the
/// process.  Lanes building shards concurrently may intern, hence the lock;
/// the default case takes none.
const std::array<CStateSpec, kCStateCount>* intern_table(
    const std::array<CStateSpec, kCStateCount>& table) {
  const auto& def = default_cstate_table();
  if (tables_equal(table, def)) return &def;
  static std::mutex mu;
  static std::deque<std::array<CStateSpec, kCStateCount>> interned;
  const std::lock_guard lock(mu);
  for (const auto& t : interned) {
    if (tables_equal(t, table)) return &t;
  }
  return &interned.emplace_back(table);
}

}  // namespace

CStateMachine::CStateMachine() : table_(&default_cstate_table()) {}

CStateMachine::CStateMachine(std::array<CStateSpec, kCStateCount> table)
    : table_(intern_table(table)) {}

std::optional<CState> CStateMachine::transition_target() const {
  return target_;
}

bool CStateMachine::transitioning(common::Seconds now) const {
  return target_.has_value() && now < transition_end_;
}

common::Seconds CStateMachine::begin_transition(CState target, common::Seconds now) {
  ECLB_ASSERT(!transitioning(now), "CStateMachine: transition already in flight");
  settle(now);
  ECLB_ASSERT(target != state_, "CStateMachine: already in target state");
  const CStateSpec& spec =
      target == CState::kC0 ? spec_for(*table_, state_) : spec_for(*table_, target);
  const common::Seconds latency =
      target == CState::kC0 ? spec.wake_latency : spec.entry_latency;
  target_ = target;
  transition_end_ = now + latency;
  return transition_end_;
}

void CStateMachine::settle(common::Seconds now) {
  if (target_.has_value() && now >= transition_end_) {
    state_ = *target_;
    target_.reset();
  }
}

void CStateMachine::reset() {
  state_ = CState::kC0;
  target_.reset();
  transition_end_ = common::Seconds{};
}

std::optional<double> CStateMachine::power_fraction(common::Seconds now) const {
  if (target_.has_value() && now < transition_end_) {
    if (*target_ == CState::kC0) {
      // Waking: near-peak draw per [9].
      return spec_for(*table_, state_).wake_power_fraction;
    }
    // Entering sleep: still burning roughly the source state's power.
    return state_ == CState::kC0 ? std::optional<double>{}
                                 : std::optional<double>{spec_for(*table_, state_).hold_power_fraction};
  }
  // Settled (or end time passed but settle() not yet called; report target).
  const CState effective = target_.has_value() ? *target_ : state_;
  if (effective == CState::kC0) return std::nullopt;
  return spec_for(*table_, effective).hold_power_fraction;
}

}  // namespace eclb::energy
