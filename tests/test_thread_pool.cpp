// The fleet runtime's fixed pool: every index runs exactly once, errors
// surface at the call site, and a 1-thread pool degenerates to an inline
// loop.

#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pfm::runtime {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    const std::size_t n = 257;  // not a multiple of any pool size
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPool, CallerThreadParticipates) {
  // A pool of 1 spawns no workers at all: the closure runs on this thread.
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(3);
  pool.parallel_for(seen.size(),
                    [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i % 7 == 3) {
                                     throw std::runtime_error("task failed");
                                   }
                                 }),
               std::runtime_error);

  // The pool stays usable after a failed batch.
  std::atomic<int> count{0};
  pool.parallel_for(32, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, CapturesEveryFailurePerTask) {
  // Every task runs even when others throw, and the exception rethrown at
  // the call site is the lowest index's — whichever thread ran it.
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const std::size_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    try {
      pool.parallel_for(n, [&](std::size_t i) {
        ++hits[i];
        if (i % 7 == 3) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "no exception with " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "task 3") << threads << " threads";
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPool, HandlesEmptyAndSingleBatches) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(10, [&](std::size_t i) {
      sum += static_cast<long>(i);
    });
  }
  EXPECT_EQ(sum.load(), 50L * 45L);
}

TEST(ThreadPool, ZeroThreadsIsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.parallel_for(5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 5);
}

}  // namespace
}  // namespace pfm::runtime
