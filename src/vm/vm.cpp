#include "vm/vm.h"

#include <algorithm>

#include "common/assert.h"

namespace eclb::vm {

Vm::Vm(common::VmId id, common::AppId app, double demand, VmSpec spec,
       double lambda)
    : id_(id), app_(app), spec_(spec), demand_(std::clamp(demand, 0.0, 1.0)),
      lambda_(lambda) {
  ECLB_ASSERT(id.valid(), "Vm: invalid id");
  ECLB_ASSERT(lambda >= 0.0, "Vm: lambda must be >= 0");
}

void Vm::set_demand(double d) { demand_ = std::clamp(d, 0.0, 1.0); }

}  // namespace eclb::vm
