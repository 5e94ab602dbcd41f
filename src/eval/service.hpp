#pragma once

/// @file service.hpp
/// The asynchronous evaluation service: a bounded queue of evaluation
/// thunks with its own worker threads. Where parallel_for_indexed
/// blocks the caller for a whole sweep, an EvalService accepts thunks
/// one at a time, returns a future per thunk, and runs them in the
/// background — the shape the streaming driver (eval/stream.hpp) and an
/// iterative optimization loop (resubmit, refine, resubmit) need. A
/// thunk that evaluates a (net, target) case calls eval::run_case, the
/// same per-case entry point every blocking sweep fans out, so both
/// produce the same bits.
///
/// Scheduling model:
///   - Pending thunks sit in one bounded FIFO (ServiceOptions::
///     max_pending; submit_fn blocks when it is full — backpressure).
///   - `jobs` worker threads (resolve_jobs: at most kMaxJobs) each pop
///     the front of the FIFO and run it, so a queued thunk starts as
///     soon as any worker is free.
///   - Queued (not yet started) thunks can be cancelled cooperatively
///     (cancel_pending): their futures fail with CancelledError.
///     Started thunks always run to completion.
///   - Destruction drains: every accepted thunk runs (or was
///     cancelled) and every future is ready before the destructor
///     returns. Call cancel_pending() first for a fast shutdown.
///
/// Determinism: the service adds no shared state to an evaluation, so
/// a thunk's result depends only on the thunk itself — any submission
/// order or job count yields results bit-identical to the serial loop.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "eval/experiments.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace rip::eval {

/// Transient-failure retry policy. An evaluation that throws a
/// util::TransientError (flaky I/O, an injected 'err' fault) is re-run
/// up to max_attempts times total, sleeping delay_after(attempt)
/// between attempts — deterministic backoff, no jitter, so test runs
/// are reproducible. Non-transient errors (including DeadlineExceeded
/// and injected 'fail' faults) are never retried.
struct RetryPolicy {
  /// The backoff stops doubling after this many doublings.
  static constexpr int kMaxDoublings = 10;

  /// Total attempts per thunk, including the first (>= 1; 1 = no retry).
  int max_attempts = 1;
  /// Backoff unit (at most milliseconds::max() >> kMaxDoublings).
  std::chrono::milliseconds base{1};

  /// The sleep after failed attempt `attempt` (>= 1):
  /// base * 2^min(attempt - 1, kMaxDoublings).
  std::chrono::milliseconds delay_after(int attempt) const;
};

/// Knobs of the async service.
struct ServiceOptions {
  /// Worker threads popping the FIFO, resolved by resolve_jobs: N >= 1
  /// taken literally up to kMaxJobs, 0 = one per hardware thread.
  int jobs = 1;
  /// Bounded-queue backpressure: submit_fn blocks while this many
  /// thunks are already queued (not yet started). 0 = unbounded.
  std::size_t max_pending = 0;
  /// Transient-failure retry policy applied to every evaluation.
  RetryPolicy retry;
};

/// Observability snapshot of a service (EvalService::stats()).
struct ServiceStats {
  /// Thunks this service has run to completion or failure (cancelled
  /// thunks never ran and are not counted).
  std::uint64_t cases_evaluated = 0;
  /// Transient-failure re-runs performed under ServiceOptions::retry
  /// (an evaluation that succeeds on attempt 3 counts 2 retries).
  std::uint64_t retries = 0;
  /// Latency distributions: time a thunk sat queued before a worker
  /// picked it up, and time the evaluation itself ran (all attempts of
  /// a retried thunk count as one run). Quantiles are upper bounds of
  /// power-of-two buckets; count/mean/max are exact.
  LatencySnapshot queue_time;
  LatencySnapshot run_time;
};

/// Thrown through the future of a thunk that was cancelled before it
/// started (EvalService::cancel_pending).
class CancelledError : public Error {
 public:
  CancelledError() : Error("evaluation case cancelled before it started") {}
};

namespace detail {
struct ServiceState;
}  // namespace detail

/// The asynchronous evaluation service. One instance owns its worker
/// threads and serves any number of submitters concurrently; all public
/// methods are thread-safe.
///
/// Reentrancy rule: thunks run on the service's worker threads. They
/// may submit follow-up work, but on a service with a bounded queue
/// (max_pending > 0) such a submit can block on backpressure that only
/// the very thread doing the submitting would relieve — a deadlock the
/// destructor then inherits. A driver loop that resubmits from thunks
/// must use an unbounded queue or hand the follow-up submission to a
/// consumer thread.
class EvalService {
 public:
  /// The service never reads `tech`: every thunk captures the
  /// technology it solves against.
  explicit EvalService(const tech::Technology& tech,
                       const ServiceOptions& options = {});
  /// Drains: blocks until every accepted thunk is settled, then joins
  /// the workers. Every future handed out is ready afterwards.
  ~EvalService();

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Queue an evaluation thunk. Blocks while the pending queue is
  /// full. The thunk runs exactly once on a service thread (re-run
  /// only under ServiceOptions::retry); its return value or exception
  /// settles the returned future and nothing else, so one failing
  /// thunk never touches its neighbours. Side-effect-only thunks may
  /// return CaseResult{}.
  std::future<CaseResult> submit_fn(std::function<CaseResult()> fn);

  /// Thunks queued but not yet picked up by a worker (the backpressure
  /// quantity).
  std::size_t pending_count() const;

  /// Cancel every queued (not yet started) thunk; their futures fail
  /// with CancelledError. Returns how many were cancelled.
  std::size_t cancel_pending();

  /// Counter and latency snapshot.
  ServiceStats stats() const;

 private:
  /// Stop accepting, let the workers drain the queue, and join them.
  void drain_and_join();

  std::size_t max_pending_;
  std::shared_ptr<detail::ServiceState> state_;
  std::vector<std::thread> workers_;
};

}  // namespace rip::eval
