// The serve kernel against the per-VM queue it replaced.
//
// Seeded random histories drive one VM's queue two ways: through the old
// queue object (tests/support/queue_oracle.h) and through the kernel the
// way the request driver drives it -- the VM's run copied from last
// window's carry buffer into the tail of a fresh buffer behind other VMs'
// runs, arrivals pushed behind it, the whole run served in place, the
// completed head erased, and a migration drain residue kept in a vector of
// its own, served at its frozen rate and handed back in front of the
// survivors when its window runs out.  After every window the two must
// agree bit for bit on completions, violations, the histogram digest, the
// backlog, the server-free time and every surviving request.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "support/queue_oracle.h"
#include "workload/engine/queue.h"

namespace eclb::workload::engine {
namespace {

using common::Seconds;
using test_support::OracleQueue;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  double u01() { return static_cast<double>(rng_() >> 11) * 0x1.0p-53; }
  bool chance(double p) { return u01() < p; }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }
  /// Service work spread over six decades, so windows see partial heads,
  /// whole bursts served and queues that never drain.
  double service() { return 1e-3 * std::pow(10.0, 6.0 * u01()) + 1e-9; }

 private:
  std::mt19937_64 rng_;
};

/// What the histories exercised.
struct Coverage {
  std::size_t zero_rate{0};      ///< Windows served at rate 0.
  std::size_t partial_heads{0};  ///< Windows closing mid-request.
  std::size_t ready_carry{0};    ///< Windows starting before ready_at.
  std::size_t handbacks{0};      ///< Expiring residues handed back.
  std::size_t second_hops{0};    ///< Migrations while still draining.
};

void expect_same_run(const std::vector<Pending>& got,
                     const std::vector<Pending>& want, std::uint64_t seed,
                     std::size_t window) {
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " window " << window;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(got[i].arrival.value), bits(want[i].arrival.value))
        << "seed " << seed << " window " << window << " request " << i;
    ASSERT_EQ(bits(got[i].remaining), bits(want[i].remaining))
        << "seed " << seed << " window " << window << " request " << i;
  }
}

/// One seeded history of `windows` windows; returns what it exercised.
Coverage run_history(std::uint64_t seed, std::size_t windows) {
  Draw draw(seed);
  Coverage cov;
  // The oracle side.
  OracleQueue vm;
  OracleQueue residue;
  LatencyHistogram oracle_hist;
  // The kernel side: last window's carry buffer and the VM's run in it.
  std::vector<Pending> carry;
  std::size_t begin = 0;
  std::size_t count = 0;
  FifoState fifo;
  std::vector<Pending> drain;
  FifoState drain_fifo;
  LatencyHistogram hist;

  bool draining = false;
  std::uint32_t drain_left = 0;
  double drain_rate = 0.0;
  double t = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    // Windows are usually back to back; some start before the previous one
    // ended, so a server-free time past the window's start carries over, and
    // a few are empty.
    double t0 = t;
    if (draw.chance(0.15)) t0 -= 60.0 * draw.u01();
    const double len = draw.chance(0.03) ? 0.0 : 1.0 + 119.0 * draw.u01();
    const double t1 = t0 + len;
    t = t1;
    if (t0 < vm.ready_at().value && len > 0.0) ++cov.ready_carry;

    // A migration under a drain window hands the whole queue to a fresh
    // residue, an older residue still draining re-joining at its front.
    if (vm.depth() > 0 && draw.chance(0.12)) {
      OracleQueue fresh;
      fresh.prepend(vm.take_all());
      std::vector<Pending> next_drain;
      FifoState next_fifo;
      prepend(next_drain, 0,
              std::span<const Pending>(carry.data() + begin, count),
              next_fifo);
      count = 0;
      fifo.backlog = 0.0;
      if (draining) {
        fresh.prepend(residue.take_all());
        prepend(next_drain, 0, drain, next_fifo);
        ++cov.second_hops;
      }
      residue = fresh;
      drain = next_drain;
      drain_fifo = next_fifo;
      draining = true;
      drain_left = 1 + static_cast<std::uint32_t>(draw.below(3));
      drain_rate = draw.chance(0.2) ? 0.0 : 2.0 * draw.u01();
    }

    // Rebuild: other VMs' runs, then this VM's carried run and arrivals.
    std::vector<Pending> next(draw.below(4), Pending{Seconds{-1.0}, 7.0});
    const std::size_t base = next.size();
    next.insert(next.end(), carry.begin() + static_cast<std::ptrdiff_t>(begin),
                carry.begin() + static_cast<std::ptrdiff_t>(begin + count));
    const std::size_t arrivals = draw.chance(0.2) ? 0 : draw.below(40);
    std::vector<double> at(arrivals);
    for (double& a : at) a = t0 + len * draw.u01();
    std::sort(at.begin(), at.end());
    for (const double a : at) {
      const Request r{Seconds{a}, draw.service()};
      vm.push(r);
      push(next, fifo, r);
    }
    count = next.size() - base;

    const double rate = draw.chance(0.15) ? 0.0 : 2.0 * draw.u01();
    const double sla = 10.0 * draw.u01();
    if (!(rate > 0.0)) ++cov.zero_rate;
    std::vector<double> work_before(count);
    for (std::size_t i = 0; i < count; ++i) {
      work_before[i] = next[base + i].remaining;
    }
    const QueueServeStats want =
        vm.serve(Seconds{t0}, Seconds{t1}, rate, sla, &oracle_hist);
    const QueueServeStats got =
        serve(std::span<Pending>(next.data() + base, count), fifo,
              Seconds{t0}, Seconds{t1}, rate, sla, &hist);
    EXPECT_EQ(got.completed, want.completed) << "seed " << seed;
    EXPECT_EQ(got.sla_violations, want.sla_violations) << "seed " << seed;
    const auto head = next.begin() + static_cast<std::ptrdiff_t>(base);
    next.erase(head, head + static_cast<std::ptrdiff_t>(got.completed));
    count -= got.completed;
    if (count > 0 && next[base].remaining != work_before[got.completed]) {
      ++cov.partial_heads;
    }

    // The residue drains on its source, then re-joins when it expires.
    if (draining) {
      const QueueServeStats rwant = residue.serve(
          Seconds{t0}, Seconds{t1}, drain_rate, sla, &oracle_hist);
      const QueueServeStats rgot = serve(drain, drain_fifo, Seconds{t0},
                                         Seconds{t1}, drain_rate, sla, &hist);
      EXPECT_EQ(rgot.completed, rwant.completed) << "seed " << seed;
      EXPECT_EQ(rgot.sla_violations, rwant.sla_violations) << "seed " << seed;
      drain.erase(drain.begin(),
                  drain.begin() + static_cast<std::ptrdiff_t>(rgot.completed));
      if (drain_left > 1 && residue.depth() > 0) {
        --drain_left;
      } else {
        if (residue.depth() > 0) {
          vm.prepend(residue.take_all());
          prepend(next, base, drain, fifo);
          count += drain.size();
          ++cov.handbacks;
        }
        residue = OracleQueue{};
        drain.clear();
        drain_fifo = FifoState{};
        draining = false;
      }
      EXPECT_EQ(bits(drain_fifo.backlog), bits(residue.backlog_work()));
      EXPECT_EQ(bits(drain_fifo.ready_at.value),
                bits(residue.ready_at().value));
      expect_same_run(drain, residue.pending(), seed, w);
    }

    begin = base;
    carry.swap(next);
    EXPECT_EQ(bits(fifo.backlog), bits(vm.backlog_work()))
        << "seed " << seed << " window " << w;
    EXPECT_EQ(bits(fifo.ready_at.value), bits(vm.ready_at().value))
        << "seed " << seed << " window " << w;
    const auto run = carry.begin() + static_cast<std::ptrdiff_t>(begin);
    expect_same_run(
        std::vector<Pending>(run, run + static_cast<std::ptrdiff_t>(count)),
        vm.pending(), seed, w);
    EXPECT_EQ(hist.digest(), oracle_hist.digest())
        << "seed " << seed << " window " << w;
    if (::testing::Test::HasFailure()) break;
  }
  return cov;
}

TEST(ServeKernel, MatchesTheQueueOracleOnRandomHistories) {
  Coverage total;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const Coverage cov = run_history(seed, 60);
    total.zero_rate += cov.zero_rate;
    total.partial_heads += cov.partial_heads;
    total.ready_carry += cov.ready_carry;
    total.handbacks += cov.handbacks;
    total.second_hops += cov.second_hops;
    if (HasFailure()) break;
  }
  EXPECT_GT(total.zero_rate, 0U);
  EXPECT_GT(total.partial_heads, 0U);
  EXPECT_GT(total.ready_carry, 0U);
  EXPECT_GT(total.handbacks, 0U);
  EXPECT_GT(total.second_hops, 0U);
}

}  // namespace
}  // namespace eclb::workload::engine
