#include "eval/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "util/thread_pool.hpp"

namespace rip::eval {

std::chrono::milliseconds RetryPolicy::delay_after(int attempt) const {
  const int doublings = std::clamp(attempt - 1, 0, kMaxDoublings);
  return base * (std::int64_t{1} << doublings);
}

namespace detail {

/// One queued evaluation: a thunk and the promise its future reads.
struct QueueEntry {
  std::function<CaseResult()> solve;
  std::promise<CaseResult> promise;
  /// When the entry was accepted — settle() turns it into queue time.
  std::chrono::steady_clock::time_point enqueued;
};

/// The FIFO and counters shared by the service and its workers.
struct ServiceState {
  mutable std::mutex mutex;
  std::condition_variable work_cv;   ///< wakes idle workers
  std::condition_variable space_cv;  ///< wakes backpressure-blocked submits
  std::deque<QueueEntry> queue;      ///< pending (accepted, not started)
  bool stopping = false;
  RetryPolicy retry;                 ///< immutable after construction
  std::atomic<std::uint64_t> evaluated{0};  ///< thunks actually run
  std::atomic<std::uint64_t> retries{0};    ///< transient re-runs
  LatencyHistogram queue_time;  ///< accepted -> picked up by a worker
  LatencyHistogram run_time;    ///< evaluation wall time (all attempts)
};

namespace {

/// Run an entry's thunk under the service's retry policy: transient
/// errors (util::TransientError — flaky I/O, injected 'err' faults)
/// are retried with deterministic exponential backoff, everything else
/// propagates on the first throw.
CaseResult solve_with_retry(ServiceState& service, QueueEntry& entry) {
  const RetryPolicy& retry = service.retry;
  for (int attempt = 1;; ++attempt) {
    try {
      return entry.solve();
    } catch (const TransientError&) {
      if (attempt >= retry.max_attempts) throw;
      service.retries.fetch_add(1, std::memory_order_relaxed);
      if (retry.base.count() > 0) {
        std::this_thread::sleep_for(retry.delay_after(attempt));
      }
    }
  }
}

/// Evaluate one queue entry and settle its promise. Never throws: the
/// thunk's exception becomes the future's exception and nothing else —
/// which is what keeps one failing thunk from touching its neighbours.
void settle(ServiceState& service, QueueEntry& entry) {
  // Move the promise out and let it die here, on the settling thread:
  // once the result is set, the consumer's future must hold the last
  // reference to the shared state, so a stored exception is destroyed
  // on the thread that read it — never concurrently with that read
  // (the same exception-lifetime discipline the scheduler uses when it
  // moves a region's error out before rethrowing).
  std::promise<CaseResult> promise = std::move(entry.promise);
  const auto started = std::chrono::steady_clock::now();
  service.queue_time.record_ns(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          started - entry.enqueued)
          .count()));
  // Record run_time and count the evaluation BEFORE settling the
  // promise: the instant set_value/set_exception runs, a consumer
  // blocked in future.get() may wake and read stats(), and the
  // counters must already reflect this thunk.
  const auto book_evaluation = [&] {
    service.run_time.record_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - started)
            .count()));
    service.evaluated.fetch_add(1, std::memory_order_relaxed);
  };
  try {
    CaseResult result = solve_with_retry(service, entry);
    book_evaluation();
    promise.set_value(std::move(result));
  } catch (...) {
    book_evaluation();
    promise.set_exception(std::current_exception());
  }
}

/// One worker: pop the front of the FIFO and settle it, until the
/// service is stopping and the queue has drained.
void work(ServiceState& service) {
  for (;;) {
    std::unique_lock<std::mutex> lock(service.mutex);
    service.work_cv.wait(
        lock, [&] { return !service.queue.empty() || service.stopping; });
    if (service.queue.empty()) return;  // stopping, fully drained
    // Move-constructed, never default-constructed: a default promise
    // would allocate a shared state only to abandon it.
    QueueEntry entry = std::move(service.queue.front());
    service.queue.pop_front();
    lock.unlock();
    service.space_cv.notify_one();  // one slot freed
    settle(service, entry);
  }
}

}  // namespace
}  // namespace detail

EvalService::EvalService(const tech::Technology& /*tech*/,
                         const ServiceOptions& options)
    : max_pending_(options.max_pending),
      state_(std::make_shared<detail::ServiceState>()) {
  RIP_REQUIRE(options.retry.max_attempts >= 1,
              "ServiceOptions::retry.max_attempts must be >= 1");
  RIP_REQUIRE(options.retry.base.count() <=
                  std::chrono::milliseconds::max().count() >>
                      RetryPolicy::kMaxDoublings,
              "ServiceOptions::retry.base is too long to double");
  state_->retry = options.retry;
  const int jobs = resolve_jobs(options.jobs);
  try {
    for (int w = 0; w < jobs; ++w) {
      workers_.emplace_back([state = state_.get()] { detail::work(*state); });
    }
  } catch (...) {
    // A thread failed to start. No destructor runs for a half-built
    // service, so join the workers that did start before rethrowing.
    drain_and_join();
    throw;
  }
}

EvalService::~EvalService() { drain_and_join(); }

void EvalService::drain_and_join() {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->stopping = true;
  }
  state_->work_cv.notify_all();
  state_->space_cv.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<CaseResult> EvalService::submit_fn(
    std::function<CaseResult()> fn) {
  RIP_REQUIRE(static_cast<bool>(fn), "submit_fn needs a callable");
  detail::QueueEntry entry;
  entry.solve = std::move(fn);
  std::future<CaseResult> future = entry.promise.get_future();
  // Local copies: keep the state (and the bound we wait on) alive
  // through the blocking wait even if the service object is
  // (erroneously) destroyed mid-submit — the predicate must not read
  // through `this` once we may have been woken by a destructor.
  const std::shared_ptr<detail::ServiceState> state = state_;
  const std::size_t max_pending = max_pending_;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    RIP_REQUIRE(!state->stopping, "submit on a destructing EvalService");
    if (max_pending > 0) {
      state->space_cv.wait(lock, [&] {
        return state->queue.size() < max_pending || state->stopping;
      });
      RIP_REQUIRE(!state->stopping,
                  "EvalService destroyed while a submit was blocked");
    }
    entry.enqueued = std::chrono::steady_clock::now();
    state->queue.push_back(std::move(entry));
  }
  state->work_cv.notify_one();
  return future;
}

std::size_t EvalService::pending_count() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->queue.size();
}

std::size_t EvalService::cancel_pending() {
  std::deque<detail::QueueEntry> removed;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    removed.swap(state_->queue);
  }
  if (removed.empty()) return 0;
  // The queue emptied: wake submitters blocked on backpressure.
  state_->space_cv.notify_all();
  for (detail::QueueEntry& entry : removed) {
    // Same promise-dies-on-the-settling-thread rule as settle().
    std::promise<CaseResult> promise = std::move(entry.promise);
    promise.set_exception(std::make_exception_ptr(CancelledError()));
  }
  return removed.size();
}

ServiceStats EvalService::stats() const {
  ServiceStats out;
  out.cases_evaluated = state_->evaluated.load();
  out.retries = state_->retries.load();
  out.queue_time = state_->queue_time.snapshot();
  out.run_time = state_->run_time.snapshot();
  return out;
}

}  // namespace rip::eval
