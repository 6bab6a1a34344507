#include "workload/engine/arrivals.h"

#include <cmath>
#include <numbers>

#include "common/assert.h"

namespace eclb::workload::engine {

std::string_view to_string(StreamKind kind) {
  switch (kind) {
    case StreamKind::kPoisson: return "poisson";
    case StreamKind::kDiurnal: return "diurnal";
    case StreamKind::kFlash: return "flash";
    case StreamKind::kTrace: return "trace";
  }
  return "?";
}

double peak_rate(const StreamSpec& spec) {
  switch (spec.kind) {
    case StreamKind::kPoisson:
      return spec.rate;
    case StreamKind::kDiurnal:
      return spec.rate * (1.0 + spec.amplitude);
    case StreamKind::kFlash:
      return spec.rate * spec.burst;
    case StreamKind::kTrace:
      return 0.0;
  }
  return 0.0;
}

double mean_rate(const StreamSpec& spec) {
  switch (spec.kind) {
    case StreamKind::kPoisson:
    case StreamKind::kDiurnal:
      // The sinusoid averages out over whole periods.
      return spec.rate;
    case StreamKind::kFlash: {
      const double on = spec.on_mean.value;
      const double off = spec.off_mean.value;
      return spec.rate * (off + spec.burst * on) / (on + off);
    }
    case StreamKind::kTrace:
      // Unknown without scanning the trace; trace-info reports it.
      return 0.0;
  }
  return 0.0;
}

ArrivalStream::ArrivalStream(StreamSpec spec, std::uint64_t seed,
                             std::uint32_t index)
    : spec_(std::move(spec)),
      index_(index),
      rng_(common::mix_seed(seed, index)),
      sampler_(spec_.service) {
  ECLB_ASSERT(spec_.rate > 0.0 || spec_.kind == StreamKind::kTrace,
              "arrival stream: rate must be > 0");
  if (spec_.kind == StreamKind::kTrace) {
    cursor_ = std::make_unique<stream::TraceRateCursor>(spec_.trace_file);
    const stream::StreamStatus st = cursor_->status();
    if (st != stream::StreamStatus::kOk && st != stream::StreamStatus::kEof) {
      ok_ = false;
      error_ = "cannot replay trace '" + spec_.trace_file +
               "': " + std::string(stream::to_string(st));
    }
  }
}

double ArrivalStream::rate_at(common::Seconds t) const {
  switch (spec_.kind) {
    case StreamKind::kPoisson:
      return spec_.rate;
    case StreamKind::kDiurnal: {
      const double phase =
          2.0 * std::numbers::pi * t.value / spec_.period.value;
      return spec_.rate * (1.0 + spec_.amplitude * std::sin(phase));
    }
    case StreamKind::kFlash:
      return flash_on_ ? spec_.rate * spec_.burst : spec_.rate;
    case StreamKind::kTrace:
      return 0.0;  // Path-dependent; see the cursor.
  }
  return 0.0;
}

void ArrivalStream::advance_flash_state(common::Seconds t) {
  if (!flash_armed_) {
    flash_armed_ = true;
    flash_on_ = false;
    next_switch_ =
        common::Seconds{rng_.exponential(1.0 / spec_.off_mean.value)};
  }
  while (next_switch_ <= t) {
    flash_on_ = !flash_on_;
    const double sojourn_mean =
        flash_on_ ? spec_.on_mean.value : spec_.off_mean.value;
    next_switch_ += common::Seconds{rng_.exponential(1.0 / sojourn_mean)};
  }
}

void ArrivalStream::generate(common::Seconds t0, common::Seconds t1,
                             std::vector<Request>* out) {
  if (!ok_ || t1 <= t0) return;
  if (clock_ < t0) clock_ = t0;

  // The thinning envelope: a constant rate dominating the target rate over
  // the whole window.  Candidates arrive as a homogeneous Poisson process at
  // the envelope; each survives with probability rate(t) / envelope.
  const double envelope =
      spec_.kind == StreamKind::kTrace
          ? cursor_->window_max(t0, t1) * spec_.trace_scale
          : peak_rate(spec_);
  if (!(envelope > 0.0)) {
    clock_ = t1;
    return;
  }

  while (true) {
    const double gap = rng_.exponential(envelope);
    const double t = clock_.value + gap;
    if (t >= t1.value) {
      // Truncate at the window edge: the exponential is memoryless, so
      // restarting the candidate clock at t1 next window is exact.
      clock_ = t1;
      break;
    }
    clock_ = common::Seconds{t};

    bool accept = true;
    switch (spec_.kind) {
      case StreamKind::kPoisson:
        break;  // Envelope equals the rate; every candidate survives.
      case StreamKind::kDiurnal:
        accept = rng_.uniform01() * envelope < rate_at(clock_);
        break;
      case StreamKind::kFlash: {
        advance_flash_state(clock_);
        const double rate = flash_on_ ? spec_.rate * spec_.burst : spec_.rate;
        accept = rng_.uniform01() * envelope < rate;
        break;
      }
      case StreamKind::kTrace: {
        const double r = cursor_->value_at(clock_) * spec_.trace_scale;
        accept = rng_.uniform01() * envelope < r;
        break;
      }
    }
    if (accept) {
      out->push_back(Request{clock_, sampler_.sample(rng_)});
    }
  }
}

}  // namespace eclb::workload::engine
