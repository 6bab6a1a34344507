// Deterministic pseudo-random number generation.
//
// Every stochastic choice in the simulator flows through this generator so
// that an experiment is fully reproducible from (configuration, seed).  The
// core is xoshiro256** seeded via splitmix64 -- fast, high quality, and with
// a bit-exact implementation we control (libstdc++ distributions are not
// guaranteed bit-identical across versions, our own are).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/assert.h"

namespace eclb::common {

/// A splitmix64 mix of (base, index): the canonical derivation of an
/// independent child seed `index` from a master seed `base`.  The pre-mix
/// input `base + GAMMA * (index + 1)` is a bijection of (base, index) along
/// each axis, so -- unlike the naive `base + index` -- the streams of
/// (base, i + 1) and (base + 1, i) can never coincide; the splitmix64
/// finalizer then decorrelates neighbouring children.  Shared by
/// experiment::replication_seed (per-replication streams) and the fabric's
/// per-shard cluster/fault seeds.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t base, std::uint64_t index);

/// Seedable xoshiro256** PRNG plus the small set of distributions the
/// simulator needs.  The per-request draws (next_u64, uniform01,
/// exponential) are defined here so hot loops inline them.  Copyable: copying forks the stream (both copies produce
/// the same subsequent values), which is how per-replication streams are
/// derived deterministically.
class Rng {
 public:
  /// Constructs a generator whose entire stream is a function of `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derives an independent child generator; child `n` of a given parent is
  /// deterministic.  Used to give each replication / server its own stream.
  [[nodiscard]] Rng fork();

  /// Next raw 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() {
    // 53 top bits -> double in [0,1) with full mantissa resolution.
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).  Requires lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform index in [0, n).  Requires n > 0.
  [[nodiscard]] std::size_t index(std::size_t n);

  /// Bernoulli trial with success probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p);

  /// Normal deviate with the given mean and standard deviation (Box-Muller).
  [[nodiscard]] double normal(double mean, double stddev);

  /// Exponential deviate with the given rate (mean 1/rate).  Requires rate > 0.
  [[nodiscard]] double exponential(double rate) {
    ECLB_ASSERT(rate > 0.0, "exponential: rate must be positive");
    double u = uniform01();
    if (u <= 0.0) u = 0x1.0p-53;
    return -std::log(u) / rate;
  }

  /// In-place Fisher-Yates shuffle.
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  double cached_normal_{0.0};
  bool has_cached_normal_{false};
};

}  // namespace eclb::common
