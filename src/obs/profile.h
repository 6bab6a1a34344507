// Wall-clock phase profiling: a Profiler aggregates per-phase timings.
//
// Phases are named free-form ("round", "placement_search", "cstate_settle",
// "replication", ...).  Recording is mutex-guarded -- phases fire a handful
// of times per interval, so contention is negligible -- which lets one
// Profiler aggregate across concurrently running replications.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace eclb::obs {

/// Aggregated wall-clock statistics for one named phase.
struct PhaseStats {
  std::uint64_t calls{0};
  double total_seconds{0.0};
  double max_seconds{0.0};
};

/// Thread-safe accumulator of per-phase wall-clock time.
class Profiler {
 public:
  /// Folds one `wall_seconds` observation into `phase`.
  void record(std::string_view phase, double wall_seconds);

  /// Snapshot of every phase, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, PhaseStats>> snapshot() const;

  /// Human-readable table: one line per phase with calls, total, mean, max.
  void write(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, PhaseStats, std::less<>> phases_;
};

}  // namespace eclb::obs
