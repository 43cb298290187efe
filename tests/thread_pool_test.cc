// ThreadPool regression suite, centered on the exception protocol: a
// job fn that throws must abort the batch, drain every worker, and
// rethrow the FIRST captured exception on the borrowing thread — and
// the pool must stay fully usable afterwards. (The pre-fix behavior
// was std::terminate from an unhandled exception on a worker thread.)
// Run under TSan (-DUKC_SANITIZE=thread) the drain protocol is also a
// data-race check.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace ukc {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    const size_t n = 10000;
    std::vector<std::atomic<int>> counts(n);
    pool.ParallelFor(n, [&](int worker, size_t i) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, pool.num_threads());
      counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(counts[i].load(), 1) << "index " << i;
    }
  }
}

// Workers claim contiguous ranges of max(1, count / (16 T)) indices:
// the counts around 16 T are where the grain turns from 1 to 2, and
// 10^6 + 7 leaves a short last range. Every index must still run
// exactly once, and each worker's indices run in ascending order.
TEST(ThreadPoolTest, RangeClaimsRunEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    const size_t t16 = 16 * static_cast<size_t>(threads);
    for (size_t count : {size_t{0}, size_t{1}, t16 - 1, t16, t16 + 1,
                         size_t{1000007}}) {
      std::vector<std::atomic<int>> counts(count);
      std::vector<size_t> last(threads, 0);
      std::vector<int> ascending(threads, 1);
      pool.ParallelFor(count, [&](int worker, size_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
        if (i < last[worker]) ascending[worker] = 0;
        last[worker] = i;
      });
      size_t wrong = 0;
      for (size_t i = 0; i < count; ++i) wrong += counts[i].load() != 1;
      EXPECT_EQ(wrong, 0u) << "threads=" << threads << " count=" << count;
      for (int w = 0; w < threads; ++w) {
        EXPECT_EQ(ascending[w], 1) << "threads=" << threads
                                   << " count=" << count << " worker=" << w;
      }
    }
  }
}

TEST(ThreadPoolTest, ThrowingJobRethrowsOnBorrowingThread) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(1000,
                       [&](int, size_t i) {
                         if (i == 137) throw std::runtime_error("boom at 137");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionMessageSurvivesTheRethrow) {
  ThreadPool pool(2);
  try {
    pool.ParallelFor(8, [&](int, size_t i) {
      if (i == 3) throw std::runtime_error("distinctive message");
    });
    FAIL() << "ParallelFor swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "distinctive message");
  }
}

TEST(ThreadPoolTest, PoolIsReusableAfterAThrowingJob) {
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(pool.ParallelFor(
                     64, [&](int, size_t) { throw std::runtime_error("x"); }),
                 std::runtime_error);
    // The very next job must run normally on the drained pool.
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, [&](int, size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 5050u) << "round " << round;
  }
}

TEST(ThreadPoolTest, AbortedBatchStopsPullingNewIndices) {
  // Throwing at the first index must abort the batch early: with a
  // huge count, far fewer indices run than exist. The bound is loose
  // (workers may each grab one index before observing the abort flag)
  // but orders of magnitude below count.
  ThreadPool pool(8);
  std::atomic<size_t> ran{0};
  const size_t count = 1u << 20;
  EXPECT_THROW(pool.ParallelFor(count,
                                [&](int, size_t) {
                                  ran.fetch_add(1, std::memory_order_relaxed);
                                  throw std::runtime_error("abort");
                                }),
               std::runtime_error);
  EXPECT_LT(ran.load(), count / 2);
}

TEST(ThreadPoolTest, EveryThrowingWorkerIsDrainedNotLeaked) {
  // All workers throw concurrently; exactly one exception may surface
  // per batch and the pool must survive many such batches (a leaked
  // exception_ptr or an undrained worker would deadlock or terminate).
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    try {
      pool.ParallelFor(pool.num_threads() * 4, [&](int, size_t i) {
        throw std::runtime_error("worker " + std::to_string(i));
      });
      FAIL() << "no exception in round " << round;
    } catch (const std::runtime_error&) {
    }
  }
  std::atomic<size_t> ok{0};
  pool.ParallelFor(32, [&](int, size_t) {
    ok.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ok.load(), 32u);
}

TEST(ThreadPoolTest, ConcurrentThrowsAggregateIntoOneCountedError) {
  // Rendezvous so every executor (the caller plus 3 workers) is inside
  // a job before any throws: exactly 4 exceptions are captured, and
  // the batch surfaces ONE error carrying the count and the first
  // message — not a silently dropped 3-of-4.
  ThreadPool pool(4);
  std::atomic<int> started{0};
  try {
    pool.ParallelFor(4, [&](int, size_t i) {
      started.fetch_add(1, std::memory_order_relaxed);
      while (started.load(std::memory_order_relaxed) < 4) {
      }
      throw std::runtime_error("job " + std::to_string(i) + " failed");
    });
    FAIL() << "ParallelFor swallowed the batch failure";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4 worker exceptions"), std::string::npos) << what;
    EXPECT_NE(what.find("first:"), std::string::npos) << what;
    EXPECT_NE(what.find("failed"), std::string::npos) << what;
  }
  // The pool survives the multi-throw batch.
  std::atomic<size_t> ok{0};
  pool.ParallelFor(16,
                   [&](int, size_t) { ok.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ok.load(), 16u);
}

TEST(ThreadPoolTest, SingleExceptionKeepsItsConcreteType) {
  // The aggregation must not flatten the one-exception case: a lone
  // std::logic_error arrives as std::logic_error, not as the
  // aggregated runtime_error wrapper.
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(
                   1000, [&](int, size_t i) {
                     if (i == 500) throw std::logic_error("only one");
                   }),
               std::logic_error);
}

TEST(ThreadPoolTest, NonStandardExceptionsAreCountedInTheAggregate) {
  // Jobs throwing non-std::exception payloads still aggregate; the
  // first-message slot degrades to a placeholder instead of crashing.
  ThreadPool pool(4);
  std::atomic<int> started{0};
  try {
    pool.ParallelFor(4, [&](int, size_t) {
      started.fetch_add(1, std::memory_order_relaxed);
      while (started.load(std::memory_order_relaxed) < 4) {
      }
      throw 42;
    });
    FAIL() << "ParallelFor swallowed the batch failure";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4 worker exceptions"), std::string::npos) << what;
    EXPECT_NE(what.find("<non-standard exception>"), std::string::npos) << what;
  }
  // A lone non-standard exception still arrives unwrapped.
  EXPECT_THROW(pool.ParallelFor(1, [&](int, size_t) { throw 7; }), int);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInlineAndStillThrows) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.ParallelFor(5, [&](int worker, size_t i) {
    EXPECT_EQ(worker, 0);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_THROW(
      pool.ParallelFor(3, [&](int, size_t) { throw std::logic_error("t"); }),
      std::logic_error);
  // Still usable inline.
  size_t sum = 0;
  pool.ParallelFor(4, [&](int, size_t i) { sum += i; });
  EXPECT_EQ(sum, 6u);
}

}  // namespace
}  // namespace ukc
