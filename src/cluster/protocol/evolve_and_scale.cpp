#include <algorithm>
#include <cstddef>

#include "cluster/config.h"
#include "cluster/protocol/actions.h"
#include "cluster/protocol/view.h"
#include "common/assert.h"

namespace eclb::cluster::protocol {

namespace {
constexpr double kEps = 1e-9;
/// The demand floor and cap every VM shares (sample_growth varies only
/// lambda).
constexpr vm::DemandGrowthSpec kGrowth{};
}  // namespace

void evolve_and_scale(ClusterView& view) {
  const ClusterConfig& config = view.config();
  // Externally driven demand (the request engine) replaces this pass
  // wholesale; skipping before any draw keeps the RNG stream untouched.
  if (!config.demand_evolution_enabled) return;
  common::Rng& rng = view.rng();

  // Iterate by server index over each server's roster as it stood when the
  // server's own pass began: horizontal scaling may add VMs to *other*
  // servers (and to later indices of this loop), which must not be
  // re-evolved this interval.  The donor's own roster cannot change during
  // its pass -- every placement primitive excludes the requester, demand
  // resizes act in place, and nothing migrates VMs here -- so bounding the
  // walk at the initial count visits exactly the VM ids the legacy snapshot
  // captured, in the same order, without materializing them.  The hot part
  // of the pass (one bernoulli draw per hosted VM) then touches no VM
  // records at all; a record is loaded only for the few draws that hit.
  //
  // The awake/vm-count gates read the state table's columns live at visit
  // time, exactly like the legacy per-server accessor checks; a skipped
  // server (asleep, or hosting nothing) draws no randomness in either
  // formulation, so the RNG stream is unchanged.
  const std::span<server::Server> servers = view.servers();
  const server::ServerStateTable& state = view.state();
  const std::span<const std::uint8_t> awake_col = state.awake_flags();
  const std::span<const std::uint32_t> vm_count_col = state.vm_counts();
  for (std::size_t i = 0; i < servers.size(); ++i) {
    if (awake_col[i] == 0 || vm_count_col[i] == 0) continue;
    server::Server& s = servers[i];
    // The column mirrors Server::vm_count() (sync_derived); reading it keeps
    // the no-hit iterations from pulling the scattered Server record into
    // cache at all.  The assert below still cross-checks on every hit.
    const std::size_t roster = vm_count_col[i];

    for (std::size_t j = 0; j < roster; ++j) {
      if (!rng.bernoulli(config.demand_change_probability)) continue;
      ECLB_ASSERT(s.vm_count() == roster,
                  "evolve: roster changed under the index walk");
      const vm::Vm& v = s.vms()[j];
      const common::VmId vm_id = v.id();
      // The VM record carries its own rate: the hit costs one record load.
      const double step_size = rng.uniform(-v.lambda(), v.lambda());
      const double requested = std::clamp(
          v.demand() + step_size, kGrowth.min_demand, kGrowth.max_demand);

      if (requested <= v.demand() + kEps) {
        // Shrinking (or unchanged) always succeeds locally and is free.
        (void)s.force_demand(vm_id, requested);
        continue;
      }

      const double delta = requested - v.demand();
      // Vertical scaling: grant if the server stays out of the
      // undesirable-high region (the energy-aware admission rule).
      const bool fits_capacity = s.load() + delta <= s.capacity() + kEps;
      const bool stays_tolerable =
          s.load() + delta <= s.thresholds().alpha_sopt_high + kEps;
      if (fits_capacity && stays_tolerable &&
          s.try_vertical_scale(vm_id, requested)) {
        view.grant_vertical(s.id());
        continue;
      }

      // Horizontal scaling: start a new VM carrying the increment on a
      // server picked by the configured placement policy.
      const auto target_id = view.pick_horizontal_target(delta, s.id());
      if (target_id.has_value()) {
        view.spawn_remote(*target_id, v.app(), delta);
      } else if (view.try_offload(v.app(), delta, s.id())) {
        // A sibling cluster took the increment (multi-cluster cloud).
      } else {
        // No capacity anywhere: ask the leader to wake a sleeper and record
        // the unmet increment as an SLA violation for this interval.
        view.request_wake(s.id());
        view.recorder().sla_violation(delta, s.id());
      }
    }
  }
}

}  // namespace eclb::cluster::protocol
