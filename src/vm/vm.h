// Virtual machines.
//
// A VM is the unit of placement and migration.  Its CPU demand is expressed
// as a fraction of a (normalized) server's capacity, matching the paper's
// normalized-performance axis; its memory footprint drives migration cost.
#pragma once

#include <string>

#include "common/types.h"
#include "common/units.h"
#include "vm/application.h"

namespace eclb::vm {

/// Static sizing of a VM -- what the migration model needs to know.
struct VmSpec {
  common::MiB image_size{common::MiB{4096.0}};  ///< Disk image (horizontal scale-out transfer).
  common::MiB ram{common::MiB{2048.0}};         ///< Resident memory (pre-copy transfer).
  common::MiBps dirty_rate{common::MiBps{40.0}};///< Page-dirtying rate while running.
};

/// A running virtual machine instance.
class Vm {
 public:
  /// Creates a VM for application `app` with initial CPU demand `demand`
  /// (fraction of server capacity, in [0,1]) whose demand may move by at
  /// most `lambda` per interval.
  Vm(common::VmId id, common::AppId app, double demand, VmSpec spec = {},
     double lambda = DemandGrowthSpec{}.lambda);

  /// Unique id.
  [[nodiscard]] common::VmId id() const { return id_; }
  /// Owning application.
  [[nodiscard]] common::AppId app() const { return app_; }
  /// Static sizing.
  [[nodiscard]] const VmSpec& spec() const { return spec_; }

  /// The paper's lambda_{i,k}: the largest demand change per interval, up
  /// or down (DemandGrowthSpec's max_shrink equals it; its floor and cap are
  /// the struct defaults).  Fixed for the VM's life, migrations included.
  [[nodiscard]] double lambda() const { return lambda_; }

  /// Current CPU demand (fraction of server capacity).
  [[nodiscard]] double demand() const { return demand_; }

  /// Sets the CPU demand; clamped to [0, 1].
  void set_demand(double d);

 private:
  common::VmId id_;
  common::AppId app_;
  VmSpec spec_;
  double demand_;
  double lambda_;
};

}  // namespace eclb::vm
