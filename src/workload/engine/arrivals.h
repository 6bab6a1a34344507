// Open-loop request arrival streams.
//
// Each stream is an independent point process with its own child RNG
// (common::mix_seed(seed, index), the derivation replication and fabric
// shard streams share), so a workload's arrival sequence is a pure function
// of (spec, seed) -- independent of cluster state, thread count or how the
// simulation windows its calls.  Non-homogeneous rates (diurnal swing,
// MMPP-2 flash crowds, trace-modulated replay) are generated by thinning a
// homogeneous candidate process at the window's rate envelope, the textbook
// construction that keeps every draw attributable to one stream.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "workload/engine/sampler.h"
#include "workload/stream/reader.h"

namespace eclb::workload::engine {

/// One generated request.
struct Request {
  common::Seconds arrival{};  ///< Absolute arrival time.
  double service{0.0};        ///< Work, in capacity-seconds at rate 1.0.
};

/// Arrival-process families.
enum class StreamKind : std::uint8_t {
  kPoisson = 0,  ///< Homogeneous Poisson at `rate`.
  kDiurnal = 1,  ///< Rate swings rate*(1 + amplitude*sin(2*pi*t/period)).
  kFlash = 2,    ///< MMPP-2: base rate with exponential on/off bursts.
  kTrace = 3,    ///< Rate replayed from a streaming trace file.
};

/// Display name ("poisson" / "diurnal" / "flash" / "trace").
[[nodiscard]] std::string_view to_string(StreamKind kind);

/// Full parameterization of one stream.
struct StreamSpec {
  StreamKind kind{StreamKind::kPoisson};
  double rate{50.0};          ///< Base arrival rate, requests/second.  > 0.
  double amplitude{0.8};      ///< kDiurnal: relative swing in [0, 1).
  common::Seconds period{common::Seconds{24.0 * 3600.0}};  ///< kDiurnal.
  double burst{8.0};          ///< kFlash: on-state rate multiplier.  >= 1.
  common::Seconds on_mean{common::Seconds{120.0}};   ///< kFlash burst length.
  common::Seconds off_mean{common::Seconds{1200.0}}; ///< kFlash gap length.
  std::string trace_file{};   ///< kTrace: streaming trace path.
  double trace_scale{1.0};    ///< kTrace: requests/s per trace demand unit.
  ServiceModel service{};     ///< Service-time law.
  double sla_seconds{0.5};    ///< Sojourn budget; beyond it is a violation.
};

/// Long-run average arrival rate of `spec` (requests/second); the figure
/// the empirical-rate property test checks against.
[[nodiscard]] double mean_rate(const StreamSpec& spec);

/// Highest arrival rate of `spec` (requests/second): `rate`, `rate·(1+amp)`
/// for diurnal and `rate·burst` for flash streams -- the envelope thinning
/// draws candidates at.  0 for trace streams, whose peak is in the file.
[[nodiscard]] double peak_rate(const StreamSpec& spec);

/// One deterministic arrival stream.  generate() must be called with
/// contiguous, non-decreasing windows (the reallocation intervals).
class ArrivalStream {
 public:
  /// `seed` is the engine's master seed; the stream draws from child stream
  /// mix_seed(seed, index).
  ArrivalStream(StreamSpec spec, std::uint64_t seed, std::uint32_t index);

  [[nodiscard]] const StreamSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint32_t index() const { return index_; }

  /// True when the stream is usable (a kTrace stream whose file failed to
  /// open is not; it then generates nothing).
  [[nodiscard]] bool ok() const { return ok_; }
  /// The trace-open failure, empty when ok().
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Appends the requests arriving in [t0, t1), in increasing arrival
  /// order, to `out`.
  void generate(common::Seconds t0, common::Seconds t1,
                std::vector<Request>* out);

  /// Instantaneous target rate at `t` (kPoisson/kDiurnal only; kFlash and
  /// kTrace rates are path-dependent and reported via mean_rate / cursor).
  [[nodiscard]] double rate_at(common::Seconds t) const;

 private:
  /// Advances the MMPP modulating state to `t`, toggling at the scheduled
  /// switch times.
  void advance_flash_state(common::Seconds t);

  StreamSpec spec_;
  std::uint32_t index_;
  common::Rng rng_;
  ServiceSampler sampler_;
  common::Seconds clock_{common::Seconds{0.0}};  ///< Candidate-process cursor.
  // MMPP-2 modulating chain.
  bool flash_on_{false};
  bool flash_armed_{false};
  common::Seconds next_switch_{common::Seconds{0.0}};
  // Trace-modulated rate signal.
  std::unique_ptr<stream::TraceRateCursor> cursor_;
  bool ok_{true};
  std::string error_;
};

}  // namespace eclb::workload::engine
