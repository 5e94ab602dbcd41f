// util::Scheduler and parallel_for_indexed: the contracts the batch
// evaluation engine relies on — every index runs exactly once at any
// count, jobs=1 is the serial loop on the calling thread and
// never creates the scheduler, the persistent singleton is reused
// across calls (no per-call thread spin-up), and exceptions propagate
// to the caller. Each gtest case runs in its own process (ctest
// discovery), so singleton-lifecycle assertions are isolated.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace rip {
namespace {

TEST(ResolveJobs, LiteralForPositiveValues) {
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(4), 4);
  EXPECT_EQ(resolve_jobs(64), 64);
}

TEST(ResolveJobs, ZeroAndNegativeMeanHardwareThreads) {
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-3), 1);
  EXPECT_EQ(resolve_jobs(0), resolve_jobs(-1));
}

// The scheduler and EvalService both size their threads with
// resolve_jobs, so this one clamp bounds either pool. Only the resolved
// count is checked: no thread is started here.
TEST(ResolveJobs, ClampsEveryRequestToTheWorkerCap) {
  EXPECT_EQ(resolve_jobs(kMaxJobs), kMaxJobs);
  EXPECT_EQ(resolve_jobs(kMaxJobs + 1), kMaxJobs);
  EXPECT_EQ(resolve_jobs(100000), kMaxJobs);
  EXPECT_LE(resolve_jobs(0), kMaxJobs);
}

TEST(ParallelForIndexed, JobsOneRunsSeriallyOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::vector<std::thread::id> threads;
  parallel_for_indexed(16, 1, [&](std::size_t i) {
    order.push_back(i);
    threads.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i) << "serial path must preserve index order";
  }
  for (const auto id : threads) EXPECT_EQ(id, caller);
}

TEST(ParallelForIndexed, JobsOneNeverCreatesTheScheduler) {
  ASSERT_FALSE(Scheduler::exists()) << "test process must start clean";
  std::vector<int> out(64, 0);
  for (int round = 0; round < 3; ++round) {
    parallel_for_indexed(out.size(), 1, [&](std::size_t i) { out[i] = 1; });
  }
  EXPECT_FALSE(Scheduler::exists())
      << "jobs=1 must bypass the persistent pool entirely";
}

TEST(ParallelForIndexed, EveryIndexRunsExactlyOnce) {
  // Counts below, at and well above the participant count, most of
  // them not divisible by it.
  for (const std::size_t count : {1u, 2u, 7u, 64u, 257u, 500u}) {
    std::vector<std::atomic<int>> hits(count);
    parallel_for_indexed(count, 8, [&](std::size_t i) {
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "count " << count << " index " << i;
    }
  }
}

TEST(ParallelForIndexed, ResultsMatchSerialAtAnyJobCount) {
  constexpr std::size_t kCount = 200;
  std::vector<double> serial(kCount);
  parallel_for_indexed(kCount, 1, [&](std::size_t i) {
    serial[i] = static_cast<double>(i) * 1.5 + 1.0;
  });
  for (const int jobs : {2, 4, 8}) {
    std::vector<double> parallel(kCount);
    parallel_for_indexed(kCount, jobs, [&](std::size_t i) {
      parallel[i] = static_cast<double>(i) * 1.5 + 1.0;
    });
    EXPECT_EQ(parallel, serial) << "jobs=" << jobs;
  }
}

TEST(ParallelForIndexed, ZeroCountIsANoop) {
  bool ran = false;
  parallel_for_indexed(0, 4, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForIndexed, ExceptionPropagatesFromWorker) {
  for (const int jobs : {1, 4}) {
    std::atomic<int> executed{0};
    try {
      parallel_for_indexed(64, jobs, [&](std::size_t i) {
        if (i == 17) throw std::runtime_error("boom at 17");
        executed.fetch_add(1);
      });
      FAIL() << "expected the worker exception at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 17");
    }
    EXPECT_LT(executed.load(), 64) << "failure must cancel remaining work";
  }
}

TEST(ParallelForIndexed, SerialPathStopsAtFirstFailure) {
  std::vector<std::size_t> ran;
  EXPECT_THROW(parallel_for_indexed(10, 1,
                                    [&](std::size_t i) {
                                      if (i == 3) throw Error("bad index");
                                      ran.push_back(i);
                                    }),
               Error);
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Scheduler, GlobalReturnsTheSameInstance) {
  Scheduler& a = Scheduler::global();
  Scheduler& b = Scheduler::global();
  EXPECT_EQ(&a, &b);
  EXPECT_TRUE(Scheduler::exists());
}

TEST(Scheduler, WorkersPersistAcrossCalls) {
  // Calls at the same job count must reuse the pool: the worker count
  // after the first call is already sufficient and must not grow.
  // Bounds are relative to the pool earlier tests may have grown when
  // the whole binary runs in one process.
  const int prior =
      Scheduler::exists() ? Scheduler::global().worker_count() : 0;
  std::vector<int> out(100, -1);
  parallel_for_indexed(out.size(), 4, [&](std::size_t i) {
    out[i] = static_cast<int>(i);
  });
  const int after_first = Scheduler::global().worker_count();
  EXPECT_GE(after_first, 1);
  EXPECT_LE(after_first, std::max(prior, 3))
      << "jobs=4 needs at most 3 pool workers";
  for (int round = 0; round < 5; ++round) {
    parallel_for_indexed(out.size(), 4, [&](std::size_t i) {
      out[i] = static_cast<int>(i) + round;
    });
  }
  EXPECT_EQ(Scheduler::global().worker_count(), after_first)
      << "repeated calls must not spin up new threads";
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 4);
  }
}

TEST(Scheduler, PoolGrowsToTheLargestJobCount) {
  const int prior =
      Scheduler::exists() ? Scheduler::global().worker_count() : 0;
  std::vector<int> out(64, 0);
  parallel_for_indexed(out.size(), 2, [&](std::size_t i) { out[i] = 1; });
  const int small = Scheduler::global().worker_count();
  parallel_for_indexed(out.size(), 6, [&](std::size_t i) { out[i] = 2; });
  const int big = Scheduler::global().worker_count();
  EXPECT_GE(big, small);
  EXPECT_LE(big, std::max(prior, 5))
      << "jobs=6 needs at most 5 pool workers";
  // Shrinking the job count never shrinks the pool (workers are
  // parked, not churned).
  parallel_for_indexed(out.size(), 2, [&](std::size_t i) { out[i] = 3; });
  EXPECT_EQ(Scheduler::global().worker_count(), big);
}

TEST(Scheduler, MultipleThreadsExecuteChunksOfOneRegion) {
  // Whichever thread claims the first index holds it until a second
  // thread has run one — the 63 remaining indices are claimable by
  // every other participant, so a second thread must arrive (caller
  // and pool workers are all in the region). A generous 5 s limit
  // keeps a genuine failure from hanging.
  constexpr std::size_t kCount = 64;
  std::mutex mutex;
  std::set<std::thread::id> distinct;
  std::atomic<bool> first_claimed{false};
  parallel_for_indexed(kCount, 4, [&](std::size_t) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      distinct.insert(std::this_thread::get_id());
    }
    if (!first_claimed.exchange(true)) {
      for (int spin = 0; spin < 5000; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lock(mutex);
        if (distinct.size() >= 2) break;
      }
    }
  });
  EXPECT_GE(distinct.size(), 2u)
      << "no second thread ever claimed an index";
}

TEST(Scheduler, MoreJobsThanWorkStillCompletes) {
  std::vector<int> out(3, 0);
  parallel_for_indexed(out.size(), 8, [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(out, (std::vector<int>{1, 1, 1}));
}

}  // namespace
}  // namespace rip
