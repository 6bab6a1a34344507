#include "common/rng.h"

#include <bit>
#include <cmath>
#include <numbers>

namespace eclb::common {

namespace {

/// splitmix64 step, used only to expand the user seed into xoshiro state.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t index) {
  // splitmix64 finalizer over base + GAMMA * (index + 1); see rng.h for why
  // this derivation keeps neighbouring (base, index) streams disjoint.
  std::uint64_t x = base + 0x9E3779B97F4A7C15ULL * (index + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

Rng::Rng(std::uint64_t seed) {
  // xoshiro state must not be all-zero; splitmix64 guarantees that with
  // overwhelming probability, and we re-roll in the pathological case.
  do {
    for (auto& s : s_) s = splitmix64(seed);
  } while (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0);
}

Rng Rng::fork() {
  // Mixing two draws keeps parent and child streams decorrelated.
  std::uint64_t a = next_u64();
  std::uint64_t b = next_u64();
  return Rng(a ^ std::rotl(b, 17));
}

double Rng::uniform(double lo, double hi) {
  ECLB_ASSERT(lo <= hi, "uniform: lo must be <= hi");
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  ECLB_ASSERT(lo <= hi, "uniform_int: lo must be <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t r;
  do {
    r = next_u64();
  } while (r >= limit);
  return lo + static_cast<std::int64_t>(r % span);
}

std::size_t Rng::index(std::size_t n) {
  ECLB_ASSERT(n > 0, "index: n must be positive");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

bool Rng::bernoulli(double p) {
  return uniform01() < p;
}

double Rng::normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  // Box-Muller; u1 is nudged away from 0 so log() stays finite.
  double u1 = uniform01();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

}  // namespace eclb::common
