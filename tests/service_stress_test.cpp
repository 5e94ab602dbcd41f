// Stress and determinism workloads for the asynchronous evaluation
// service (eval/service.hpp), run under TSan in CI: 10k submissions,
// concurrent submitters, exception propagation to exactly
// the failing case's future, cancellation racing submission, and the
// headline contract — service results at any job count are
// bit-identical to the serial loop, including the seed-2005 golden
// pins (the same values golden_test.cpp demands of run_case).

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "eval/experiments.hpp"
#include "eval/service.hpp"
#include "eval/workload.hpp"
#include "net/netlist_io.hpp"
#include "tech/technology.hpp"

namespace rip::eval {
namespace {

constexpr double kPctTol = 1e-6;    // matches golden_test.cpp
constexpr double kWidthTol = 1e-9;  // matches golden_test.cpp

const tech::Technology& technology() {
  static const tech::Technology tech = tech::make_tech180();
  return tech;
}

CaseResult tagged(double tag) {
  CaseResult r;
  r.tau_t_fs = tag;
  return r;
}

TEST(ServiceStress, TenThousandSubmissionsAllSettleCorrectly) {
  constexpr int kSubmissions = 10000;
  ServiceOptions options;
  options.jobs = 8;
  EvalService service(technology(), options);

  std::vector<std::future<CaseResult>> futures;
  futures.reserve(kSubmissions);
  std::atomic<int> executed{0};
  for (int i = 0; i < kSubmissions; ++i) {
    futures.push_back(service.submit_fn([&executed, i] {
      executed.fetch_add(1);
      return tagged(i);
    }));
  }
  for (int i = 0; i < kSubmissions; ++i) {
    // Each future must carry exactly its own submission's result —
    // no cross-slot mixups however the workers interleave.
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().tau_t_fs,
              static_cast<double>(i))
        << "submission " << i;
  }
  EXPECT_EQ(executed.load(), kSubmissions);
}

TEST(ServiceStress, ConcurrentSubmittersShareOneService) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  ServiceOptions options;
  options.jobs = 4;
  options.max_pending = 64;  // exercise backpressure under contention
  EvalService service(technology(), options);

  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<CaseResult>>> futures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      futures[static_cast<std::size_t>(t)].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        const double tag = t * kPerThread + i;
        futures[static_cast<std::size_t>(t)].push_back(
            service.submit_fn([tag] { return tagged(tag); }));
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(futures[static_cast<std::size_t>(t)]
                    [static_cast<std::size_t>(i)]
                        .get()
                        .tau_t_fs,
                static_cast<double>(t * kPerThread + i))
          << "thread " << t << " submission " << i;
    }
  }
}

TEST(ServiceStress, ExceptionReachesExactlyTheThrowingCasesFuture) {
  constexpr int kSubmissions = 500;
  constexpr int kFailEvery = 37;
  ServiceOptions options;
  options.jobs = 8;
  EvalService service(technology(), options);

  std::vector<std::future<CaseResult>> futures;
  futures.reserve(kSubmissions);
  for (int i = 0; i < kSubmissions; ++i) {
    futures.push_back(service.submit_fn([i]() -> CaseResult {
      if (i % kFailEvery == 0) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
      return tagged(i);
    }));
  }
  for (int i = 0; i < kSubmissions; ++i) {
    auto& future = futures[static_cast<std::size_t>(i)];
    if (i % kFailEvery == 0) {
      try {
        future.get();
        FAIL() << "submission " << i << " must fail";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "boom " + std::to_string(i));
      }
    } else {
      EXPECT_EQ(future.get().tau_t_fs, static_cast<double>(i))
          << "submission " << i << " must not be poisoned by neighbours";
    }
  }
}

TEST(ServiceStress, CancellationRacesSubmissionWithoutLosingCases) {
  constexpr int kSubmissions = 2000;
  ServiceOptions options;
  options.jobs = 4;
  EvalService service(technology(), options);

  std::vector<std::future<CaseResult>> futures;
  futures.reserve(kSubmissions);
  std::atomic<bool> submitting{true};
  std::thread canceller([&] {
    while (submitting.load()) service.cancel_pending();
  });
  for (int i = 0; i < kSubmissions; ++i) {
    futures.push_back(service.submit_fn([i] { return tagged(i); }));
  }
  submitting.store(false);
  canceller.join();

  // Every future settles as exactly one of {its own value, cancelled}.
  int completed = 0;
  int cancelled = 0;
  for (int i = 0; i < kSubmissions; ++i) {
    try {
      EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().tau_t_fs,
                static_cast<double>(i));
      ++completed;
    } catch (const CancelledError&) {
      ++cancelled;
    }
  }
  EXPECT_EQ(completed + cancelled, kSubmissions);
}

TEST(ServiceStress, ManySmallBatchesReuseOneService) {
  constexpr int kBatches = 200;
  constexpr int kBatchSize = 16;
  ServiceOptions options;
  options.jobs = 4;
  EvalService service(technology(), options);
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::future<CaseResult>> futures;
    futures.reserve(kBatchSize);
    for (int i = 0; i < kBatchSize; ++i) {
      futures.push_back(
          service.submit_fn([b, i] { return tagged(b * kBatchSize + i); }));
    }
    for (int i = 0; i < kBatchSize; ++i) {
      ASSERT_EQ(futures[static_cast<std::size_t>(i)].get().tau_t_fs,
                static_cast<double>(b * kBatchSize + i))
          << "batch " << b << " case " << i;
    }
  }
}

TEST(ServiceStress, ResultsAreBitIdenticalToSerialGoldensAtAnyJobCount) {
  const auto& tech = technology();
  const auto workload = make_paper_workload(tech, 2, 2005);
  const auto baseline =
      core::BaselineOptions::uniform_library(10.0, 10.0, 10);

  // Case 0 and 1 are the exact run_case goldens golden_test.cpp pins
  // (net_1 at 1.25x and 1.85x tau_min); the rest is a normal sweep.
  std::vector<net::NetlistRecord> cases;
  cases.push_back({workload[0].net, 1.25 * workload[0].tau_min_fs});
  cases.push_back({workload[0].net, 1.85 * workload[0].tau_min_fs});
  for (const auto& wn : workload) {
    for (const double tau_t : timing_targets_fs(wn.tau_min_fs, 5)) {
      cases.push_back({wn.net, tau_t});
    }
  }

  // The serial golden: a plain loop, no service, no scheduler.
  std::vector<CaseResult> serial;
  serial.reserve(cases.size());
  for (const auto& c : cases) {
    serial.push_back(run_case(c.net, tech, c.tau_t_fs, {}, baseline));
  }

  for (const int jobs : {1, 8}) {
    ServiceOptions options;
    options.jobs = jobs;
    EvalService service(tech, options);
    std::vector<std::future<CaseResult>> futures;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      futures.push_back(service.submit_fn([&, i] {
        return run_case(cases[i].net, tech, cases[i].tau_t_fs, {}, baseline);
      }));
    }
    std::vector<CaseResult> results;
    for (auto& future : futures) results.push_back(future.get());
    ASSERT_EQ(results.size(), serial.size()) << "jobs " << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Bit-identical, not just close.
      EXPECT_EQ(results[i].tau_t_fs, serial[i].tau_t_fs)
          << "case " << i << " jobs " << jobs;
      EXPECT_EQ(results[i].rip_feasible, serial[i].rip_feasible);
      EXPECT_EQ(results[i].dp_feasible, serial[i].dp_feasible);
      EXPECT_EQ(results[i].rip_width_u, serial[i].rip_width_u)
          << "case " << i;
      EXPECT_EQ(results[i].dp_width_u, serial[i].dp_width_u)
          << "case " << i;
      EXPECT_EQ(results[i].improvement_pct, serial[i].improvement_pct);
      // Runtimes are wall clock but must be genuine per-task
      // measurements taken inside the worker.
      EXPECT_GT(results[i].rip_runtime_s, 0.0) << "case " << i;
      EXPECT_GT(results[i].dp_runtime_s, 0.0) << "case " << i;
    }

    // The golden_test.cpp run_case pins, demanded through the service.
    EXPECT_TRUE(results[0].rip_feasible);
    EXPECT_TRUE(results[0].dp_feasible);
    EXPECT_NEAR(results[0].rip_width_u, 280.0, kWidthTol);
    EXPECT_NEAR(results[0].dp_width_u, 280.0, kWidthTol);
    EXPECT_NEAR(results[0].improvement_pct, 0.0, kPctTol);
    EXPECT_NEAR(results[1].rip_width_u, 50.0, kWidthTol);
    EXPECT_NEAR(results[1].dp_width_u, 50.0, kWidthTol);
  }
}

}  // namespace
}  // namespace rip::eval
