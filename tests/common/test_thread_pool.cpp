#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace eclb::common {
namespace {

TEST(ThreadPool, DefaultHasAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1U);
}

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(50, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&ran](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      (void)pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins after finishing queued work
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [](std::size_t i) {
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForRunsEveryIndexDespiteFailures) {
  // The barrier must complete before the rethrow: indices after a failing
  // one still run, so shared outputs are fully written when the exception
  // surfaces.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&hits](std::size_t i) {
                                   hits[i].fetch_add(1);
                                   if (i % 5 == 0) {
                                     throw std::runtime_error("fail");
                                   }
                                 }),
               std::runtime_error);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForConcurrentFailuresSurfaceOnce) {
  // Every index throws from several workers at once; exactly one exception
  // must escape (index 0's), and it must be a proper rethrow, not terminate.
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    int caught = 0;
    try {
      pool.parallel_for(32, [](std::size_t i) {
        throw std::runtime_error("worker " + std::to_string(i));
      });
    } catch (const std::runtime_error&) {
      ++caught;
    }
    EXPECT_EQ(caught, 1);
  }
}

TEST(ThreadPoolDeathTest, ReentrantParallelForAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.parallel_for(2, [&pool](std::size_t) {
          pool.parallel_for(2, [](std::size_t) {});
        });
      },
      "re-entrant");
}

TEST(ThreadPool, NestedParallelForAcrossDistinctPoolsWorks) {
  // Only re-entry into the SAME pool deadlocks; nesting across pools is fine.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> counter{0};
  outer.parallel_for(4, [&inner, &counter](std::size_t) {
    inner.parallel_for(4, [&counter](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, ParallelReductionMatchesSerial) {
  ThreadPool pool(4);
  std::vector<long long> partial(16, 0);
  pool.parallel_for(16, [&partial](std::size_t i) {
    long long sum = 0;
    for (long long k = 0; k < 1000; ++k) sum += static_cast<long long>(i) * k;
    partial[i] = sum;
  });
  const long long total = std::accumulate(partial.begin(), partial.end(), 0LL);
  long long expected = 0;
  for (long long i = 0; i < 16; ++i) {
    for (long long k = 0; k < 1000; ++k) expected += i * k;
  }
  EXPECT_EQ(total, expected);
}

TEST(ThreadPool, ParallelForCoversAllIndicesAtAnyWorkerCount) {
  // Fewer, as many and more indices than workers: each index runs once.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{7},
          std::size_t{64}}) {
      ThreadPool pool(workers);
      std::vector<std::atomic<int>> hits(n);
      pool.parallel_for(n, [&hits](std::size_t i) { hits[i]++; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " n=" << n
                                     << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, ParallelForRunsEveryIndexWhenTheFirstIndexThrows) {
  // A task that catches a failure keeps claiming, so the indices after the
  // throwing one still run, whichever task they fall to.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(8);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&hits](std::size_t i) {
                                   hits[i]++;
                                   if (i == 0) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

TEST(ThreadPool, ParallelForRethrowsTheLowestFailingIndex) {
  // Index 3 fails last in time (the others fail while it sleeps), yet its
  // exception is the one that surfaces.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    try {
      pool.parallel_for(40, [](std::size_t i) {
        if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (i % 7 == 3) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "parallel_for did not rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << "round " << round;
    }
  }
}

TEST(ThreadPoolDeathTest, ReentrantParallelForFromSubmittedTaskAsserts) {
#ifndef NDEBUG
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  ThreadPool pool(2);
  EXPECT_DEATH(
      pool.submit([&pool] {
            pool.parallel_for(1, [](std::size_t) {});
          }).get(),
      "re-entrant");
#endif
}

}  // namespace
}  // namespace eclb::common
