// Byte-counting polymorphic memory resource.
//
// The SoA data plane promises a measurable memory-bytes-per-server figure
// (BENCH_perf.json, eclb_cli --mem-stats).  Structures that allocate through
// an arena -- the regime index's ordered key buckets -- route the arena's
// upstream through this resource so their live heap footprint is exact
// rather than estimated from RSS.
#pragma once

#include <cstddef>
#include <memory_resource>

namespace eclb::common {

/// Forwards to new_delete_resource and keeps a running total of live bytes.
/// Not thread-safe (the simulation is single-threaded by design).
class CountingMemoryResource final : public std::pmr::memory_resource {
 public:
  /// Bytes currently allocated and not yet returned.
  [[nodiscard]] std::size_t live_bytes() const { return live_; }

 private:
  void* do_allocate(std::size_t bytes, std::size_t alignment) override {
    live_ += bytes;
    return std::pmr::new_delete_resource()->allocate(bytes, alignment);
  }

  void do_deallocate(void* p, std::size_t bytes, std::size_t alignment) override {
    live_ -= bytes;
    std::pmr::new_delete_resource()->deallocate(p, bytes, alignment);
  }

  [[nodiscard]] bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  std::size_t live_{0};
};

}  // namespace eclb::common
