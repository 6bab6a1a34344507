// FNV-1a (64-bit), the digest primitive: cheap, order-sensitive, and stable
// across platforms for the fixed-width values fed to it.  Every model digest
// (fabric reports and state, SLA summaries, latency histograms) mixes through
// these two functions.
#pragma once

#include <bit>
#include <cstdint>

namespace eclb::common {

/// The FNV-1a 64-bit offset basis (the fabric digests start here).
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
/// The offset basis with its last decimal digit dropped
/// (14695981039346656037 -> 1469598103934665603).  The request-plane digests
/// (SlaSummary, LatencyHistogram) have always started here, and their pinned
/// values depend on it.
inline constexpr std::uint64_t kFnvShortOffset = 1469598103934665603ULL;

/// Mixes the eight bytes of `v` into `h`, least significant first.
constexpr void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 0x100000001b3ULL;  // The FNV-1a 64-bit prime.
  }
}

/// Mixes the bit pattern of `v`, not its value: the determinism contract is
/// bit-identity, so +0.0 vs -0.0 or NaN payload differences must show up.
constexpr void fnv_mix(std::uint64_t& h, double v) {
  fnv_mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace eclb::common
