// The traced run's span recorder.  The driving thread records `step` and
// `requests.advance` spans around the public calls; one ShardTracer per
// shard -- a ClusterObserver owned by the benchmark -- records that shard's
// `round` span (on_interval_begin .. on_interval_end) and rebuilds its
// `placement_search` and `cstate_settle` children from the on_phase
// durations.  Every track is written by one thread at a time (a shard steps
// on one worker per interval, and the fabric's join orders the intervals),
// so no lock is shared across shards.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/recorder.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class SpanKind : std::uint8_t {
  kAdvance,    ///< requests.advance (driving thread)
  kStep,       ///< step (driving thread)
  kRound,      ///< round (shard)
  kPlacement,  ///< placement_search (shard, child of round)
  kSettle,     ///< cstate_settle (shard, child of round)
};

[[nodiscard]] std::string_view span_name(SpanKind kind);

struct Span {
  std::int64_t start_ns{0};  ///< Since the recorder's epoch.
  std::int64_t end_ns{0};
  std::int32_t parent{-1};   ///< Index of the enclosing span in its track.
  std::uint32_t interval{0};
  SpanKind kind{SpanKind::kStep};
  std::thread::id thread{};  ///< The worker that ran a round.
};

/// One shard's observer and span track.
class ShardTracer final : public eclb::cluster::ClusterObserver {
 public:
  explicit ShardTracer(Clock::time_point epoch) : epoch_(epoch) {}
  // The attached cluster holds this tracer's address.
  ShardTracer(const ShardTracer&) = delete;
  ShardTracer& operator=(const ShardTracer&) = delete;

  void on_interval_begin(std::size_t interval,
                         eclb::common::Seconds now) override;
  void on_interval_end(const eclb::cluster::IntervalReport& report,
                       eclb::common::Seconds now) override;
  void on_phase(std::string_view phase, double wall_seconds) override;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::int32_t open_round_{-1};
  std::uint32_t interval_{0};
};

/// Wall time of one traced episode, split by layer.  Self times are shares
/// of wall time: an instant in which k shard spans are open gives 1/k of
/// itself to each of their layers, so the self times plus `unattributed`
/// add up to the episode's step time at any thread count.
struct LayerTimes {
  // Self times, ms.
  double advance_ms{0.0};        ///< requests.advance
  double kernel_ms{0.0};         ///< step time before the last round
                                 ///< ends that no shard span covers
  double protocol_self_ms{0.0};  ///< round minus its children
  double placement_ms{0.0};
  double settle_ms{0.0};
  double barrier_ms{0.0};        ///< last round end .. step return
  double round_sum_ms{0.0};      ///< Sum of shard round spans (thread time).
  double parallel_ms{0.0};       ///< step start .. last round end.
  double skew_ms{0.0};           ///< Spread of the workers' last round ends.
  std::uint64_t placement_calls{0};

  [[nodiscard]] double self_sum_ms() const {
    return advance_ms + kernel_ms + protocol_self_ms + placement_ms +
           settle_ms + barrier_ms;
  }
};

/// All tracks of one traced episode.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t shards);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] ShardTracer& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  /// A span of the driving thread.
  void record(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns,
              std::uint32_t interval);

  /// Splits the recorded step windows by layer.
  [[nodiscard]] LayerTimes attribute() const;

  /// Writes every span as Chrome trace-event JSON (one track per shard,
  /// track 0 for the driving thread).  False when the file cannot be written.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> main_;
  std::vector<std::unique_ptr<ShardTracer>> shards_;
};

}  // namespace perfbench
