#include "vm/vm.h"

#include <algorithm>

#include "common/assert.h"

namespace eclb::vm {

Vm::Vm(common::VmId id, common::AppId app, double demand, VmSpec spec)
    : id_(id), app_(app), spec_(spec), demand_(std::clamp(demand, 0.0, 1.0)),
      served_(demand_) {
  ECLB_ASSERT(id.valid(), "Vm: invalid id");
}

void Vm::set_demand(double d) {
  demand_ = std::clamp(d, 0.0, 1.0);
  served_ = std::min(served_, demand_);
}

void Vm::set_served(double s) {
  ECLB_ASSERT(s >= 0.0 && s <= demand_ + 1e-12, "Vm: served must be in [0, demand]");
  served_ = std::min(s, demand_);
}

}  // namespace eclb::vm
