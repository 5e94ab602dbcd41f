// Adversarial workloads for the persistent scheduler, whose
// participants claim indices from one shared counter: one giant case
// among hundreds of tiny ones (the shape of the paper's sweep, where
// fine-grained hybrid RIP cases are 10-100x slower than coarse
// chains), exceptions thrown while other participants are mid-claim,
// nested parallel_for_indexed calls from inside workers, and a 10k-task
// soak. Every scenario is run at jobs 1/2/8 and asserts
// completion (no lost tasks — every index exactly once), bit-identical
// results, and lowest-index exception propagation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace rip {
namespace {

const std::vector<int> kJobLadder = {1, 2, 8};

/// Burn a little deterministic CPU so indices overlap in time.
double spin_work(std::size_t iterations) {
  double acc = 0;
  for (std::size_t s = 0; s < iterations; ++s) {
    acc += static_cast<double>(s % 13) * 1e-9;
  }
  return acc;
}

TEST(SchedulerStress, OneGiantAmongHundredsOfTinyTasks) {
  constexpr std::size_t kCount = 400;
  constexpr std::size_t kGiant = 37;
  auto cost = [](std::size_t i) {
    return i == kGiant ? 200000u : 500u;
  };
  std::vector<double> serial(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    serial[i] = spin_work(cost(i)) + static_cast<double>(i);
  }
  for (const int jobs : kJobLadder) {
    std::vector<double> out(kCount, -1.0);
    std::vector<std::atomic<int>> hits(kCount);
    parallel_for_indexed(kCount, jobs, [&](std::size_t i) {
      hits[i].fetch_add(1);
      out[i] = spin_work(cost(i)) + static_cast<double>(i);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " index " << i;
    }
    EXPECT_EQ(out, serial) << "jobs=" << jobs;
  }
}

TEST(SchedulerStress, GiantFirstIndexDoesNotSerializeTheRest) {
  // The giant lands on index 0, the first one claimed; the other
  // participants must keep claiming the rest while it runs.
  // Correctness assertion only.
  constexpr std::size_t kCount = 300;
  for (const int jobs : kJobLadder) {
    std::vector<std::atomic<int>> hits(kCount);
    parallel_for_indexed(kCount, jobs, [&](std::size_t i) {
      spin_work(i == 0 ? 300000u : 300u);
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " index " << i;
    }
  }
}

TEST(SchedulerStress, ExceptionMidStealPropagatesLowestRunIndex) {
  // Every index throws, so the propagated error must carry the lowest
  // index that actually started — exactly the attempted minimum.
  constexpr std::size_t kCount = 256;
  for (const int jobs : kJobLadder) {
    std::atomic<std::size_t> lowest_attempted{
        std::numeric_limits<std::size_t>::max()};
    try {
      parallel_for_indexed(kCount, jobs, [&](std::size_t i) {
        std::size_t seen = lowest_attempted.load();
        while (i < seen &&
               !lowest_attempted.compare_exchange_weak(seen, i)) {
        }
        spin_work(2000);  // let other indices be mid-run when we throw
        throw std::runtime_error("boom " + std::to_string(i));
      });
      FAIL() << "expected an exception at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      const std::string expected =
          "boom " + std::to_string(lowest_attempted.load());
      EXPECT_EQ(e.what(), expected) << "jobs=" << jobs;
    }
  }
}

TEST(SchedulerStress, ExceptionAmongHeavyNeighborsCancelsRemainingWork) {
  constexpr std::size_t kCount = 500;
  for (const int jobs : kJobLadder) {
    std::atomic<int> executed{0};
    try {
      parallel_for_indexed(kCount, jobs, [&](std::size_t i) {
        if (i == 100) throw std::runtime_error("mid-sweep failure");
        spin_work(1000);
        executed.fetch_add(1);
      });
      FAIL() << "expected an exception at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "mid-sweep failure");
    }
    EXPECT_LT(executed.load(), static_cast<int>(kCount))
        << "cancellation must skip unclaimed work at jobs=" << jobs;
  }
}

TEST(SchedulerStress, NestedParallelForCompletesWithoutDeadlock) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 50;
  for (const int outer_jobs : kJobLadder) {
    for (const int inner_jobs : {1, 4}) {
      std::vector<int> out(kOuter * kInner, -1);
      parallel_for_indexed(kOuter, outer_jobs, [&](std::size_t o) {
        parallel_for_indexed(kInner, inner_jobs, [&](std::size_t i) {
          out[o * kInner + i] = static_cast<int>(o * kInner + i);
        });
      });
      for (std::size_t k = 0; k < out.size(); ++k) {
        ASSERT_EQ(out[k], static_cast<int>(k))
            << "outer_jobs=" << outer_jobs << " inner_jobs=" << inner_jobs;
      }
    }
  }
}

TEST(SchedulerStress, NestedExceptionPropagatesThroughBothLevels) {
  for (const int jobs : {2, 8}) {
    std::atomic<int> outer_done{0};
    try {
      parallel_for_indexed(6, jobs, [&](std::size_t o) {
        parallel_for_indexed(20, 4, [&](std::size_t i) {
          if (o == 3 && i == 7) {
            throw std::runtime_error("inner boom");
          }
        });
        outer_done.fetch_add(1);
      });
      FAIL() << "expected the inner exception at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "inner boom");
    }
    EXPECT_LT(outer_done.load(), 6);
  }
}

TEST(SchedulerStress, TenThousandTaskSoak) {
  constexpr std::size_t kCount = 10000;
  for (const int jobs : kJobLadder) {
    std::vector<std::atomic<int>> hits(kCount);
    std::atomic<long long> sum{0};
    parallel_for_indexed(kCount, jobs, [&](std::size_t i) {
      hits[i].fetch_add(1);
      sum.fetch_add(static_cast<long long>(i));
    });
    const auto lost =
        std::count_if(hits.begin(), hits.end(),
                      [](const std::atomic<int>& h) { return h.load() != 1; });
    ASSERT_EQ(lost, 0) << "jobs=" << jobs;
    EXPECT_EQ(sum.load(), static_cast<long long>(kCount) * (kCount - 1) / 2);
  }
}

TEST(SchedulerStress, ManySmallBatchesReuseThePool) {
  // 500 back-to-back small regions: the persistent pool must neither
  // lose tasks nor grow without bound.
  constexpr std::size_t kBatch = 16;
  // Earlier regions (same process) may already have grown the pool;
  // jobs=4 batches must not grow it past max(already-there, 3).
  const int allowed =
      std::max(Scheduler::exists() ? Scheduler::global().worker_count() : 0,
               3);
  std::vector<int> out(kBatch, 0);
  for (int round = 0; round < 500; ++round) {
    parallel_for_indexed(kBatch, 4, [&](std::size_t i) {
      out[i] = round + static_cast<int>(i);
    });
    for (std::size_t i = 0; i < kBatch; ++i) {
      ASSERT_EQ(out[i], round + static_cast<int>(i)) << "round " << round;
    }
  }
  EXPECT_LE(Scheduler::global().worker_count(), allowed)
      << "500 jobs=4 batches must not keep spinning up threads";
}

}  // namespace
}  // namespace rip
