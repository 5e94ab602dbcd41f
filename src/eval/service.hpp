#pragma once

/// @file service.hpp
/// The asynchronous batch-evaluation service: a submit/future front-end
/// with its own worker threads. Where eval::run_cases blocks the caller
/// for a whole batch, an EvalService accepts cases one at a time or in
/// batches, returns a future per case, and evaluates them in the
/// background — the shape an iterative optimization loop (resubmit,
/// refine, resubmit) or the streaming driver (eval/stream.hpp) needs.
///
/// Scheduling model:
///   - Pending cases sit in one bounded FIFO (ServiceOptions::
///     max_pending; submit blocks when it is full — backpressure).
///   - `jobs` worker threads each pop the front of the FIFO and evaluate
///     it, so a queued case starts as soon as any worker is free.
///   - Queued (not yet started) cases can be cancelled cooperatively:
///     their futures fail with CancelledError. Started cases always run
///     to completion.
///   - Destruction drains: every accepted case is evaluated (or was
///     cancelled) and every future is ready before the destructor
///     returns. Call cancel_pending() first for a fast shutdown.
///
/// Determinism: a case's result depends only on the Case itself — the
/// service adds no shared state to the evaluation — so any submission
/// order or job count yields results bit-identical to the serial loop.
/// The RNG splits that build workloads happen before cases are
/// submitted, so the seed-2005 golden pins hold through the service.

#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "eval/context.hpp"
#include "eval/experiments.hpp"
#include "eval/parallel.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace rip::eval {

/// Transient-failure retry policy. An evaluation that throws a
/// util::TransientError (flaky I/O, an injected 'err' fault) is re-run
/// up to max_attempts times total, sleeping base * 2^(attempt-1)
/// between attempts — deterministic backoff, no jitter, so test runs
/// are reproducible. Non-transient errors (including DeadlineExceeded
/// and injected 'fail' faults) are never retried.
struct RetryPolicy {
  /// Total attempts per case, including the first (>= 1; 1 = no retry).
  int max_attempts = 1;
  /// Backoff unit: sleep base * 2^(attempt-1) after failed attempt N.
  std::chrono::milliseconds base{1};
};

/// Knobs of the async service.
struct ServiceOptions {
  /// Worker threads popping the FIFO: N >= 1 taken literally, 0 = one
  /// per hardware thread.
  int jobs = 1;
  /// Bounded-queue backpressure: submit blocks while this many cases
  /// are already queued (not yet started). 0 = unbounded.
  std::size_t max_pending = 0;
  /// Transient-failure retry policy applied to every evaluation.
  RetryPolicy retry;
  /// Ambient solve state (eval/context.hpp): the shared frontier cache
  /// consulted by every case's target-independent DP solves (results
  /// are bit-identical with or without it; EvalService::stats()
  /// surfaces its counters) and the objective backend every case
  /// minimizes. `context.workspace` must stay nullptr — each service
  /// thread evaluates on its own dp::Workspace::local(). Everything
  /// pointed at must outlive the service.
  SolveContext context;
};

/// Observability snapshot of a service (EvalService::stats()).
struct ServiceStats {
  /// Cases this service has evaluated to completion or failure
  /// (cancelled cases are not evaluations and are not counted).
  std::uint64_t cases_evaluated = 0;
  /// Transient-failure re-runs performed under ServiceOptions::retry
  /// (an evaluation that succeeds on attempt 3 counts 2 retries).
  std::uint64_t retries = 0;
  /// Latency distributions: time a case sat queued before a worker
  /// picked it up, and time the evaluation itself ran (all attempts of
  /// a retried case count as one run). Quantiles are upper bounds of
  /// power-of-two buckets; count/mean/max are exact.
  LatencySnapshot queue_time;
  LatencySnapshot run_time;
  /// Whether a SolveCache is attached; `cache` is all zeros otherwise.
  bool cache_attached = false;
  SolveCacheStats cache;
};

/// Thrown through the future of a case that was cancelled before it
/// started (BatchHandle::cancel / EvalService::cancel_pending).
class CancelledError : public Error {
 public:
  CancelledError() : Error("evaluation case cancelled before it started") {}
};

namespace detail {
struct BatchState;
struct ServiceState;
}  // namespace detail

/// One submitted batch: per-case futures, progress counters, and
/// cooperative cancellation. Handles are cheap shared references to the
/// batch's state and stay valid after the service is destroyed.
class BatchHandle {
 public:
  BatchHandle() = default;

  /// Cases in the batch (0 for a default-constructed handle).
  std::size_t size() const;

  /// The future of case `i` (batch submission order). shared_future, so
  /// it can be read repeatedly and by multiple threads. Throws the
  /// case's exception on get(): the evaluation failure, or
  /// CancelledError if the case was cancelled before it started.
  std::shared_future<CaseResult> future(std::size_t i) const;

  /// Progress counters. settled == completed + failed + cancelled;
  /// the batch is done when settled() == size().
  std::size_t settled() const;
  std::size_t completed() const;  ///< evaluated successfully
  std::size_t failed() const;     ///< evaluation threw
  std::size_t cancelled() const;  ///< cancelled before starting

  /// Block until every case is settled AND the batch completion
  /// callback (if any) has returned.
  void wait_all() const;

  /// wait_all, then collect the results in submission order. If any
  /// case failed, rethrows the exception of the lowest failed index —
  /// the same lowest-failing-index discipline as the blocking engine
  /// (cancellations never mask a failure). If cases were only
  /// cancelled, rethrows the lowest one's CancelledError.
  std::vector<CaseResult> results() const;

  /// Cooperatively cancel every case of this batch that has not yet
  /// started; their futures fail with CancelledError. Cases a worker
  /// already picked up run to completion. Returns how many were cancelled.
  /// Safe to call at any time, including after the service is gone.
  std::size_t cancel();

 private:
  friend class EvalService;
  explicit BatchHandle(std::shared_ptr<detail::BatchState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::BatchState> state_;
};

/// The asynchronous batch-evaluation service. One instance owns its
/// worker threads and serves any number of submitters concurrently;
/// all public methods are thread-safe. The Technology (and every
/// submitted Case's net) must outlive the service.
///
/// Reentrancy rule: evaluation thunks and batch completion callbacks
/// run on the service's worker threads. They may submit follow-up
/// work, but on a service with a bounded queue (max_pending > 0) such
/// a submit can block on backpressure that only the very thread doing
/// the submitting would relieve — a deadlock the destructor then
/// inherits. A driver loop that resubmits from callbacks must use an
/// unbounded queue or hand the follow-up submission to a consumer
/// thread.
class EvalService {
 public:
  explicit EvalService(const tech::Technology& tech,
                       const ServiceOptions& options = {});
  /// Drains: blocks until every accepted case is settled, then joins
  /// the workers. Every future handed out is ready afterwards.
  ~EvalService();

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Submit one case (RIP + DP baseline, eval::run_case). Blocks while
  /// the pending queue is full. The returned future yields the
  /// CaseResult or rethrows the evaluation's exception.
  std::future<CaseResult> submit(const Case& c);

  /// Submit an arbitrary evaluation thunk on the same queue — the
  /// escape hatch for drivers that evaluate something other than a
  /// Case (run_stream resolves each record's target on the worker) and
  /// for tests that need gates or failure injection. The thunk runs
  /// exactly once on a service thread; its return value (or exception)
  /// settles the future. Side-effect-only thunks may return
  /// CaseResult{}.
  std::future<CaseResult> submit_fn(std::function<CaseResult()> fn);

  /// Submit a batch of cases (one queue entry each, FIFO within the
  /// batch). `on_complete`, if given, runs exactly once after the last
  /// case of the batch settles — every future is ready by then — and
  /// before wait_all() returns; it runs on a service thread (or on the
  /// submitting thread for an empty batch). Blocks while the pending
  /// queue is full; earlier cases of the batch may already be running
  /// while later ones are still being enqueued. A failing case settles
  /// only its own future; the rest of the batch still runs.
  BatchHandle submit_batch(const std::vector<Case>& cases,
                           std::function<void()> on_complete = {});

  /// Cases queued but not yet picked up by a worker (the backpressure
  /// quantity).
  std::size_t pending_count() const;

  /// Cancel every queued (not yet started) case across all batches;
  /// their futures fail with CancelledError. Returns how many were
  /// cancelled.
  std::size_t cancel_pending();

  /// Counter snapshot: evaluated cases plus, when a SolveCache is
  /// attached, its hit/miss/eviction/entry/byte counters.
  ServiceStats stats() const;

 private:
  /// Stop accepting, let the workers drain the queue, and join them.
  void drain_and_join();
  void enqueue(std::function<CaseResult()> solve,
               const std::shared_ptr<detail::BatchState>& batch,
               std::size_t slot);

  const tech::Technology* tech_;
  ServiceOptions options_;
  std::shared_ptr<detail::ServiceState> state_;
  std::vector<std::thread> workers_;
};

}  // namespace rip::eval
