// Lifecycle contract of the asynchronous evaluation service
// (eval/service.hpp): a run_case thunk comes back bit-identical to the
// direct call, FIFO workers, cooperative
// cancellation of queued thunks, bounded-queue backpressure, failure
// isolation, and drain-on-destruction. Timing control comes from gate
// thunks that hold workers until released, so every ordering
// assertion is deterministic, not sleep-and-hope.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "eval/experiments.hpp"
#include "eval/service.hpp"
#include "eval/workload.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace rip::eval {
namespace {

const tech::Technology& technology() {
  static const tech::Technology tech = tech::make_tech180();
  return tech;
}

/// A thunk result that carries its identity, so future<->submission
/// wiring can be checked without running a solver.
CaseResult tagged(double tag) {
  CaseResult r;
  r.tau_t_fs = tag;
  return r;
}

/// Holds service workers: every hold() thunk reports that it started
/// and then blocks its worker until release(). A test that holds every
/// worker keeps everything submitted afterwards in the queue. Declare
/// the gate before the service: the service's destructor finishes
/// every hold() thunk, which must not outlive the gate.
class Gate {
 public:
  std::function<CaseResult()> hold(double tag) {
    return [this, tag] {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
      return tagged(tag);
    };
  }

  /// Block until `workers` hold() thunks have started.
  void wait_entered(int workers) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return entered_ >= workers; });
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool released_ = false;
};

TEST(ServiceLifecycle, SubmitReturnsTheCaseResultThroughTheFuture) {
  const auto& tech = technology();
  const auto workload = make_paper_workload(tech, 1, 2005);
  const auto baseline =
      core::BaselineOptions::uniform_library(10.0, 10.0, 10);
  const net::Net& net = workload[0].net;
  const double tau_t = 1.25 * workload[0].tau_min_fs;
  const CaseResult expected = run_case(net, tech, tau_t, {}, baseline);

  EvalService service(tech);
  std::future<CaseResult> future = service.submit_fn(
      [&] { return run_case(net, tech, tau_t, {}, baseline); });
  const CaseResult got = future.get();
  // Bit-identical to the direct call (and to the golden_test pins for
  // this exact case: net_1 at 1.25x tau_min).
  EXPECT_EQ(got.rip_feasible, expected.rip_feasible);
  EXPECT_EQ(got.dp_feasible, expected.dp_feasible);
  EXPECT_EQ(got.rip_width_u, expected.rip_width_u);
  EXPECT_EQ(got.dp_width_u, expected.dp_width_u);
  EXPECT_EQ(got.improvement_pct, expected.improvement_pct);
  EXPECT_NEAR(got.rip_width_u, 280.0, 1e-9);
  EXPECT_GT(got.rip_runtime_s, 0.0);
}

TEST(ServiceLifecycle, BatchResultsMatchTheSerialLoopInOrder) {
  const auto& tech = technology();
  const auto workload = make_paper_workload(tech, 1, 2005);
  const auto baseline =
      core::BaselineOptions::uniform_library(10.0, 10.0, 10);
  const net::Net& net = workload[0].net;
  const auto cases = timing_targets_fs(workload[0].tau_min_fs, 4);
  std::vector<CaseResult> serial;
  for (const double tau_t : cases) {
    serial.push_back(run_case(net, tech, tau_t, {}, baseline));
  }

  ServiceOptions options;
  options.jobs = 4;
  EvalService service(tech, options);
  std::vector<std::future<CaseResult>> futures;
  for (const double tau_t : cases) {
    futures.push_back(service.submit_fn(
        [&, tau_t] { return run_case(net, tech, tau_t, {}, baseline); }));
  }
  std::vector<CaseResult> results;
  for (auto& future : futures) results.push_back(future.get());
  ASSERT_EQ(results.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(results[i].tau_t_fs, serial[i].tau_t_fs) << "case " << i;
    EXPECT_EQ(results[i].rip_width_u, serial[i].rip_width_u) << "case " << i;
    EXPECT_EQ(results[i].dp_width_u, serial[i].dp_width_u) << "case " << i;
    EXPECT_EQ(results[i].improvement_pct, serial[i].improvement_pct);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cases_evaluated, cases.size());
  EXPECT_EQ(service.pending_count(), 0u);
}

TEST(ServiceLifecycle, QueuedCasesStartInSubmissionOrder) {
  // One worker held by a gate: everything submitted meanwhile queues,
  // then runs strictly first-in, first-out.
  ServiceOptions options;
  options.jobs = 1;
  Gate gate;
  EvalService service(technology(), options);
  std::future<CaseResult> held = service.submit_fn(gate.hold(-1));
  gate.wait_entered(1);

  std::mutex mutex;
  std::vector<int> order;
  auto record = [&](int id) {
    return [&, id] {
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(id);
      return tagged(id);
    };
  };
  std::vector<std::future<CaseResult>> futures;
  for (int id = 0; id < 6; ++id) {
    futures.push_back(service.submit_fn(record(id)));
  }
  EXPECT_EQ(service.pending_count(), 6u);
  gate.release();
  held.get();
  for (auto& future : futures) future.get();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ServiceLifecycle, QueuedCaseStartsWhenAnyWorkerIsFree) {
  // A gate case holds one of two workers. A case submitted after it
  // started must run on the other worker, not wait behind it.
  ServiceOptions options;
  options.jobs = 2;
  Gate gate;
  EvalService service(technology(), options);
  std::future<CaseResult> held = service.submit_fn(gate.hold(-1));
  gate.wait_entered(1);

  std::future<CaseResult> next = service.submit_fn([] { return tagged(1); });
  const std::future_status status = next.wait_for(std::chrono::seconds(10));
  gate.release();  // before any assertion: the destructor drains `held`
  ASSERT_EQ(status, std::future_status::ready)
      << "the queued case waited for the held worker";
  EXPECT_EQ(next.get().tau_t_fs, 1.0);
  EXPECT_EQ(held.get().tau_t_fs, -1.0);
}

TEST(ServiceLifecycle, CancelPendingSparesTheStartedCase) {
  ServiceOptions options;
  options.jobs = 1;
  Gate gate;
  EvalService service(technology(), options);
  std::future<CaseResult> held = service.submit_fn(gate.hold(-1));
  gate.wait_entered(1);  // the gate case has started

  auto queued = service.submit_fn([] { return tagged(0); });
  EXPECT_EQ(service.cancel_pending(), 1u)
      << "only the queued case is cancellable";
  gate.release();
  // The started case runs to completion — cancellation is cooperative.
  EXPECT_EQ(held.get().tau_t_fs, -1.0);
  EXPECT_THROW(queued.get(), CancelledError);
}

TEST(ServiceLifecycle, BackpressureBlocksSubmitUntilTheQueueDrains) {
  ServiceOptions options;
  options.jobs = 1;
  options.max_pending = 2;
  Gate gate;  // holds the only worker; the queue starts empty
  EvalService service(technology(), options);
  std::future<CaseResult> held = service.submit_fn(gate.hold(-1));
  gate.wait_entered(1);

  std::atomic<int> submitted{0};
  std::thread submitter([&] {
    for (int i = 0; i < 5; ++i) {
      service.submit_fn([i] { return tagged(i); });
      submitted.fetch_add(1);
    }
  });
  // The first two submissions fill the bounded queue...
  while (service.pending_count() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(submitted.load(), 2)
      << "submit #3 must block while the queue is full";
  EXPECT_EQ(service.pending_count(), 2u);
  // ...and a free worker drains the queue, unblocking the rest.
  gate.release();
  submitter.join();
  EXPECT_EQ(submitted.load(), 5);
  held.get();
}

TEST(ServiceLifecycle, DestructionDrainsEveryPendingCase) {
  std::vector<std::future<CaseResult>> futures;
  std::atomic<int> executed{0};
  Gate gate;
  std::thread releaser;
  {
    ServiceOptions options;
    options.jobs = 2;
    EvalService service(technology(), options);
    // Hold both workers so every case is still queued when the scope
    // ends; the gate opens only once the destructor is (most likely)
    // already draining.
    std::future<CaseResult> held[] = {service.submit_fn(gate.hold(-1)),
                                      service.submit_fn(gate.hold(-2))};
    gate.wait_entered(2);
    for (int i = 0; i < 8; ++i) {
      futures.push_back(service.submit_fn([&, i] {
        executed.fetch_add(1);
        return tagged(i);
      }));
    }
    EXPECT_EQ(service.pending_count(), 8u);
    releaser = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      gate.release();
    });
  }
  releaser.join();
  // The destructor ran every accepted case; all futures are ready.
  EXPECT_EQ(executed.load(), 8);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(futures[static_cast<std::size_t>(i)].wait_for(
                  std::chrono::seconds(0)),
              std::future_status::ready)
        << "future " << i;
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().tau_t_fs,
              static_cast<double>(i));
  }
}

TEST(ServiceLifecycle, ExceptionSettlesExactlyItsOwnFuture) {
  ServiceOptions options;
  options.jobs = 2;
  EvalService service(technology(), options);
  auto good = service.submit_fn([] { return tagged(1); });
  auto bad = service.submit_fn(
      []() -> CaseResult { throw std::runtime_error("case blew up"); });
  auto also_good = service.submit_fn([] { return tagged(2); });
  EXPECT_EQ(good.get().tau_t_fs, 1.0);
  EXPECT_EQ(also_good.get().tau_t_fs, 2.0);
  try {
    bad.get();
    FAIL() << "expected the thunk's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "case blew up");
  }
}

TEST(ServiceLifecycle, FailingBatchCaseSparesItsNeighbours) {
  const auto& tech = technology();
  const auto workload = make_paper_workload(tech, 1, 2005);
  const auto baseline =
      core::BaselineOptions::uniform_library(10.0, 10.0, 10);
  const net::Net& net = workload[0].net;
  const double good = 1.5 * workload[0].tau_min_fs;
  // rip_insert rejects a non-positive target, so case 1 throws.
  const std::vector<double> cases{good, -1.0, good, good};

  ServiceOptions options;
  options.jobs = 2;
  EvalService service(tech, options);
  std::vector<std::future<CaseResult>> futures;
  for (const double tau_t : cases) {
    futures.push_back(service.submit_fn(
        [&, tau_t] { return run_case(net, tech, tau_t, {}, baseline); }));
  }
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      futures[i].get();
      ++completed;
    } catch (const CancelledError&) {
      ++cancelled;
    } catch (const Error&) {
      ++failed;
      EXPECT_EQ(i, 1u) << "only the bad case may fail";
    }
  }
  EXPECT_EQ(completed, 3u);
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(cancelled, 0u);

  // A blocking sweep rethrows the same failure at any job count.
  for (const int jobs : {1, 4}) {
    EXPECT_THROW(parallel_for_indexed(cases.size(), jobs,
                                      [&](std::size_t i) {
                                        run_case(net, tech, cases[i], {},
                                                 baseline);
                                      }),
                 Error)
        << "jobs " << jobs;
  }
}

TEST(ServiceLifecycle, RejectsInvalidSubmissions) {
  EvalService service(technology());
  const auto workload = make_paper_workload(technology(), 1, 2005);
  const auto baseline =
      core::BaselineOptions::uniform_library(10.0, 10.0, 10);
  // A case without a positive target fails through its future.
  EXPECT_THROW(service
                   .submit_fn([&] {
                     return run_case(workload[0].net, technology(), 0.0, {},
                                     baseline);
                   })
                   .get(),
               Error);
  EXPECT_THROW(service.submit_fn(nullptr), Error);
}

}  // namespace
}  // namespace rip::eval
