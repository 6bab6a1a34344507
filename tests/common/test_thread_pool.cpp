#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace eclb::common {
namespace {

TEST(ThreadPool, DefaultHasAtLeastOneWorker) {
  // size() counts lanes, the calling thread included.
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1U);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4U);
  std::atomic<int> counter{0};
  pool.parallel_for(200, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, OneLaneRunsInlineInIndexOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1U);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, FnRunsOnTheCallingThread) {
  // The caller is lane 0.  The workers hold their index until the caller has
  // run one, so with one index more than lanes the caller must claim one.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::atomic<bool> worker_gave_up{false};
  pool.parallel_for(pool.size() + 1, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) {
      caller_ran = true;
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!caller_ran) {
      if (std::chrono::steady_clock::now() > deadline) {
        worker_gave_up = true;
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_TRUE(caller_ran.load());
  EXPECT_FALSE(worker_gave_up.load());
}

TEST(ThreadPool, NLanePoolUsesAtMostNThreads) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<std::thread::id> seen;
  for (int phase = 0; phase < 50; ++phase) {
    pool.parallel_for(16, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      std::lock_guard lock(mu);
      seen.insert(std::this_thread::get_id());
    });
  }
  EXPECT_LE(seen.size(), pool.size());
  EXPECT_GE(seen.size(), 1U);
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
  // Destroying a pool right after a phase, or one that never ran a phase,
  // joins its workers without losing an index or hanging.
  std::atomic<int> counter{0};
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    pool.parallel_for(20, [&counter](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 400);
  for (int round = 0; round < 20; ++round) {
    ThreadPool idle(4);
  }
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

TEST(ThreadPool, CallerLaneFailureRethrownAfterWorkersFinish) {
  // The caller's first index throws only once a worker holds an index, and
  // every worker index takes a while; the rethrow must still wait for them,
  // since fn and the phase live on the caller's stack.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> worker_started{false};
  std::atomic<bool> caller_threw{false};
  std::atomic<int> finished{0};
  const std::size_t n = 12;
  EXPECT_THROW(
      pool.parallel_for(n,
                        [&](std::size_t) {
                          if (std::this_thread::get_id() == caller &&
                              !caller_threw.exchange(true)) {
                            const auto deadline =
                                std::chrono::steady_clock::now() +
                                std::chrono::seconds(10);
                            while (!worker_started &&
                                   std::chrono::steady_clock::now() < deadline) {
                              std::this_thread::yield();
                            }
                            throw std::runtime_error("caller lane");
                          }
                          if (std::this_thread::get_id() != caller) {
                            worker_started = true;
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(20));
                          }
                          finished.fetch_add(1);
                        }),
      std::runtime_error);
  EXPECT_TRUE(worker_started.load());
  EXPECT_EQ(finished.load(), static_cast<int>(n) - 1);
}

TEST(ThreadPoolDeathTest, ReentrantParallelForFromWorkerLaneAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // The caller holds its first index until a worker re-enters, so a
        // worker lane is sure to claim one.
        ThreadPool pool(2);
        const auto caller = std::this_thread::get_id();
        pool.parallel_for(3, [&pool, caller](std::size_t) {
          if (std::this_thread::get_id() != caller) {
            pool.parallel_for(1, [](std::size_t) {});
          }
          std::this_thread::sleep_for(std::chrono::seconds(10));
        });
      },
      "re-entrant");
}

TEST(ThreadPoolDeathTest, ReentrantParallelForFromCallerLaneAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // The worker holds its index, so the caller lane is sure to claim
        // one of the other two.
        ThreadPool pool(2);
        const auto caller = std::this_thread::get_id();
        pool.parallel_for(3, [&pool, caller](std::size_t) {
          if (std::this_thread::get_id() == caller) {
            pool.parallel_for(1, [](std::size_t) {});
          }
          std::this_thread::sleep_for(std::chrono::seconds(10));
        });
      },
      "re-entrant");
}

}  // namespace
}  // namespace eclb::common
