#include "eval/service.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "util/thread_pool.hpp"

namespace rip::eval {
namespace detail {

/// Shared state of one batch (or one single submission). Kept alive by
/// the BatchHandle and the queued or running entries, so it outlives
/// the service when handles do.
struct BatchState {
  std::vector<std::promise<CaseResult>> promises;
  /// Populated for submit_batch only; single submissions hand their
  /// plain future straight to the caller and never build a handle.
  std::vector<std::shared_future<CaseResult>> futures;

  std::atomic<std::size_t> settled{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> cancelled{0};

  std::function<void()> on_complete;
  std::shared_ptr<ServiceState> service;  ///< for cancel(); may outlive it

  /// Once-guard for complete_batch: the completion callback (and the
  /// all_done hand-off) must fire exactly once even if a late cancel()
  /// races the final case's settle — both can observe settled == size,
  /// but only the exchange winner completes the batch.
  std::atomic<bool> completion_fired{false};

  std::mutex mutex;
  std::condition_variable done_cv;
  bool all_done = false;  ///< settled == size and on_complete returned
};

/// One queued evaluation: a thunk plus its slot in a batch.
struct QueueEntry {
  std::function<CaseResult()> solve;
  std::shared_ptr<BatchState> batch;
  std::size_t slot = 0;
  /// When the entry was accepted — settle() turns it into queue time.
  std::chrono::steady_clock::time_point enqueued;
};

/// The FIFO and counters shared by the service, its workers, and
/// outstanding handles.
struct ServiceState {
  mutable std::mutex mutex;
  std::condition_variable work_cv;   ///< wakes idle workers
  std::condition_variable space_cv;  ///< wakes backpressure-blocked submits
  std::deque<QueueEntry> queue;      ///< pending (accepted, not started)
  bool stopping = false;
  RetryPolicy retry;                 ///< immutable after construction
  std::atomic<std::uint64_t> evaluated{0};  ///< cases actually run
  std::atomic<std::uint64_t> retries{0};    ///< transient re-runs
  LatencyHistogram queue_time;  ///< accepted -> picked up by a worker
  LatencyHistogram run_time;    ///< evaluation wall time (all attempts)
};

namespace {

/// The batch is fully settled: run the completion callback (exceptions
/// from it are swallowed — it runs on a service thread with nowhere to
/// propagate), then release wait_all(). Guarded so it runs exactly once
/// per batch no matter how many paths observe the final settle.
void complete_batch(BatchState& batch) {
  if (batch.completion_fired.exchange(true)) return;
  if (batch.on_complete) {
    try {
      batch.on_complete();
    } catch (...) {
    }
  }
  {
    std::lock_guard<std::mutex> lock(batch.mutex);
    batch.all_done = true;
  }
  batch.done_cv.notify_all();
}

/// Count one settled case; the last one completes the batch.
void finish_slot(BatchState& batch) {
  if (batch.settled.fetch_add(1) + 1 == batch.promises.size()) {
    complete_batch(batch);
  }
}

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
        std::this_thread::sleep_for(retry.base * (std::int64_t{1}
                                                  << (attempt - 1)));
      }
    }
  }
}

/// Evaluate one queue entry and settle its promise. Never throws: the
/// thunk's exception becomes the future's exception and nothing else —
/// which is what keeps one failing case from touching its neighbours.
void settle(ServiceState& service, QueueEntry& entry) {
  BatchState& batch = *entry.batch;
  {
    // Move the promise out and let it die here, on the settling
    // thread: once the result is set, the consumer's future must hold
    // the last reference to the shared state, so a stored exception is
    // destroyed on the thread that read it — never concurrently with
    // that read (the same exception-lifetime discipline the scheduler
    // uses when it moves a region's error out before rethrowing).
    std::promise<CaseResult> promise =
        std::move(batch.promises[entry.slot]);
    const auto started = std::chrono::steady_clock::now();
    service.queue_time.record_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            started - entry.enqueued)
            .count()));
    // Record run_time and count the evaluation BEFORE settling the
    // promise: the instant set_value/set_exception runs, a consumer
    // blocked in future.get() may wake and read stats(), and the
    // counters must already reflect this case.
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
      batch.completed.fetch_add(1);
    } catch (...) {
      book_evaluation();
      promise.set_exception(std::current_exception());
      batch.failed.fetch_add(1);
    }
  }
  finish_slot(batch);
}

/// Remove queued entries (all of them, or only `only`'s) and fail their
/// futures with CancelledError. Promises are settled outside the
/// service lock — batch callbacks may run arbitrary user code.
std::size_t cancel_queued(ServiceState& service, const BatchState* only) {
  std::vector<QueueEntry> removed;
  {
    std::lock_guard<std::mutex> lock(service.mutex);
    auto& queue = service.queue;
    for (auto it = queue.begin(); it != queue.end();) {
      if (only == nullptr || it->batch.get() == only) {
        removed.push_back(std::move(*it));
        it = queue.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (removed.empty()) return 0;
  // The queue shrank: wake submitters blocked on backpressure.
  service.space_cv.notify_all();
  for (QueueEntry& entry : removed) {
    {
      // Same promise-dies-on-the-settling-thread rule as settle().
      std::promise<CaseResult> promise =
          std::move(entry.batch->promises[entry.slot]);
      promise.set_exception(std::make_exception_ptr(CancelledError()));
    }
    entry.batch->cancelled.fetch_add(1);
    finish_slot(*entry.batch);
  }
  return removed.size();
}

/// One worker: pop the front of the FIFO and settle it, until the
/// service is stopping and the queue has drained.
void work(ServiceState& service) {
  for (;;) {
    QueueEntry entry;
    {
      std::unique_lock<std::mutex> lock(service.mutex);
      service.work_cv.wait(
          lock, [&] { return !service.queue.empty() || service.stopping; });
      if (service.queue.empty()) return;  // stopping, fully drained
      entry = std::move(service.queue.front());
      service.queue.pop_front();
    }
    service.space_cv.notify_one();  // one slot freed
    settle(service, entry);
  }
}

std::shared_ptr<BatchState> make_batch_state(
    std::size_t size, std::function<void()> on_complete,
    std::shared_ptr<ServiceState> service) {
  auto batch = std::make_shared<BatchState>();
  batch->promises.resize(size);
  batch->futures.reserve(size);
  for (auto& promise : batch->promises) {
    batch->futures.push_back(promise.get_future().share());
  }
  batch->on_complete = std::move(on_complete);
  batch->service = std::move(service);
  return batch;
}

}  // namespace
}  // namespace detail

// ------------------------------------------------------------ BatchHandle

std::size_t BatchHandle::size() const {
  return state_ ? state_->promises.size() : 0;
}

std::shared_future<CaseResult> BatchHandle::future(std::size_t i) const {
  RIP_REQUIRE(state_ != nullptr && i < state_->futures.size(),
              "batch future index out of range");
  return state_->futures[i];
}

std::size_t BatchHandle::settled() const {
  return state_ ? state_->settled.load() : 0;
}
std::size_t BatchHandle::completed() const {
  return state_ ? state_->completed.load() : 0;
}
std::size_t BatchHandle::failed() const {
  return state_ ? state_->failed.load() : 0;
}
std::size_t BatchHandle::cancelled() const {
  return state_ ? state_->cancelled.load() : 0;
}

void BatchHandle::wait_all() const {
  if (!state_) return;
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->done_cv.wait(lock, [&] { return state_->all_done; });
}

std::vector<CaseResult> BatchHandle::results() const {
  wait_all();
  std::vector<CaseResult> out;
  out.reserve(size());
  // Ascending order; a real failure outranks cancellations, so remember
  // the first CancelledError and keep scanning for a failure.
  std::exception_ptr first_cancelled;
  for (std::size_t i = 0; i < size(); ++i) {
    try {
      out.push_back(future(i).get());
    } catch (const CancelledError&) {
      if (!first_cancelled) first_cancelled = std::current_exception();
    }
  }
  if (first_cancelled) std::rethrow_exception(first_cancelled);
  return out;
}

std::size_t BatchHandle::cancel() {
  if (!state_ || !state_->service) return 0;
  return detail::cancel_queued(*state_->service, state_.get());
}

// ------------------------------------------------------------ EvalService

EvalService::EvalService(const tech::Technology& tech,
                         const ServiceOptions& options)
    : tech_(&tech),
      options_(options),
      state_(std::make_shared<detail::ServiceState>()) {
  RIP_REQUIRE(options_.context.workspace == nullptr,
              "EvalService evaluates on service-thread-local workspaces; "
              "ServiceOptions::context.workspace must stay nullptr");
  RIP_REQUIRE(options_.retry.max_attempts >= 1,
              "ServiceOptions::retry.max_attempts must be >= 1");
  state_->retry = options_.retry;
  const int jobs = resolve_jobs(options_.jobs);
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

void EvalService::enqueue(std::function<CaseResult()> solve,
                          const std::shared_ptr<detail::BatchState>& batch,
                          std::size_t slot) {
  // Local copies: keep the state (and the bound we wait on) alive
  // through the blocking wait even if the service object is
  // (erroneously) destroyed mid-submit — the predicate must not read
  // through `this` once we may have been woken by a destructor.
  const std::shared_ptr<detail::ServiceState> state = state_;
  const std::size_t max_pending = options_.max_pending;
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
    detail::QueueEntry entry;
    entry.solve = std::move(solve);
    entry.batch = batch;
    entry.slot = slot;
    entry.enqueued = std::chrono::steady_clock::now();
    state->queue.push_back(std::move(entry));
  }
  state->work_cv.notify_one();
}

std::future<CaseResult> EvalService::submit_fn(
    std::function<CaseResult()> fn) {
  RIP_REQUIRE(static_cast<bool>(fn), "submit_fn needs a callable");
  auto batch = std::make_shared<detail::BatchState>();
  batch->promises.resize(1);
  batch->service = state_;
  std::future<CaseResult> future = batch->promises[0].get_future();
  enqueue(std::move(fn), batch, 0);
  return future;
}

std::future<CaseResult> EvalService::submit(const Case& c) {
  RIP_REQUIRE(c.net != nullptr, "submitted case without a net");
  const tech::Technology& tech = *tech_;
  const SolveContext context = options_.context;
  return submit_fn([c, &tech, context] {
    return evaluate_case(tech, c, context, kFaultAutoKey);
  });
}

BatchHandle EvalService::submit_batch(const std::vector<Case>& cases,
                                      std::function<void()> on_complete) {
  for (const Case& c : cases) {
    RIP_REQUIRE(c.net != nullptr, "batch case without a net");
  }
  auto batch = detail::make_batch_state(cases.size(), std::move(on_complete),
                                        state_);
  if (cases.empty()) {
    // Nothing will ever settle it: complete (callback included) now,
    // synchronously on the submitting thread.
    detail::complete_batch(*batch);
    return BatchHandle(batch);
  }
  const tech::Technology& tech = *tech_;
  const SolveContext context = options_.context;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    // The batch slot is the case's stable fault-point key, so keyed
    // solve.* faults hit the same cases at any job count.
    const Case c = cases[i];
    enqueue([c, i, &tech, context] {
      return evaluate_case(tech, c, context, i);
    }, batch, i);
  }
  return BatchHandle(batch);
}

std::size_t EvalService::pending_count() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->queue.size();
}

std::size_t EvalService::cancel_pending() {
  return detail::cancel_queued(*state_, nullptr);
}

ServiceStats EvalService::stats() const {
  ServiceStats out;
  out.cases_evaluated = state_->evaluated.load();
  out.retries = state_->retries.load();
  out.queue_time = state_->queue_time.snapshot();
  out.run_time = state_->run_time.snapshot();
  if (options_.context.cache != nullptr) {
    out.cache_attached = true;
    out.cache = options_.context.cache->stats();
  }
  return out;
}

}  // namespace rip::eval
