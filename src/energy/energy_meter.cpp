#include "energy/energy_meter.h"

namespace eclb::energy {

EnergyMeter::EnergyMeter(common::Seconds start, common::Watts p0)
    : last_(start), power_(p0) {}

void EnergyMeter::advance(common::Seconds now, common::Watts power) {
  ECLB_ASSERT(now >= last_, "EnergyMeter: time went backwards");
  // Zero elapsed time at an unchanged power level is a no-op: the accrual is
  // exactly +0.0 and both stores are idempotent.  The settle/account sweeps
  // hit this for every server whose power the protocol left alone, so the
  // early return keeps the second sweep from dirtying cache lines for them.
  if (now.value == last_.value && power.value == power_.value) return;
  total_ += power_ * (now - last_);
  last_ = now;
  power_ = power;
}

void EnergyMeter::charge(common::Joules amount) {
  ECLB_ASSERT(amount.value >= 0.0, "EnergyMeter: negative charge");
  total_ += amount;
}

}  // namespace eclb::energy
