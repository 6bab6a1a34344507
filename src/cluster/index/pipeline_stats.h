// Counters for the phase-coalesced notification pipeline.
//
// Split into its own header so Cluster/Fabric can expose the aggregate
// without pulling in the whole RegimeIndex, and so the CLI / perf kernel
// can consume the figures with one tiny include.
#pragma once

#include <cstdint>

namespace eclb::cluster::index {

/// Cumulative figures for the coalesced update pipeline (see
/// RegimeIndex::flush).  All counters are monotonic since construction; the
/// wall-clock phase timers only advance while phase timing is enabled
/// (RegimeIndex::set_phase_timing) so the hot path never reads the clock.
struct PipelineStats {
  std::uint64_t flushes{0};        ///< Phase barriers executed.
  std::uint64_t dirty_slots{0};    ///< Slot marks processed across flushes.
  std::uint64_t batch_refiles{0};  ///< Key-axis erase+insert ops applied batched.
  std::uint64_t refile_runs{0};    ///< Grouped bucket runs those ops collapsed to.
  /// Always 0: the flush has no classification phase (the IndexRow comes
  /// classified).  Kept because perfbench reports it as index.classify_ms.
  double classify_seconds{0.0};
  double diff_seconds{0.0};        ///< Old/new slot diff + in-place apply.
  double refile_seconds{0.0};      ///< Sorted grouped-run apply to KeyBucketSet.

  PipelineStats& operator+=(const PipelineStats& o) {
    flushes += o.flushes;
    dirty_slots += o.dirty_slots;
    batch_refiles += o.batch_refiles;
    refile_runs += o.refile_runs;
    diff_seconds += o.diff_seconds;
    refile_seconds += o.refile_seconds;
    return *this;
  }
};

}  // namespace eclb::cluster::index
