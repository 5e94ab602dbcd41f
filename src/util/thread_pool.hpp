#pragma once

/// @file thread_pool.hpp
/// The persistent per-process scheduler behind every blocking sweep
/// (rip_cli `sweep` and `compare`, the table runners, the bench
/// binaries), each one parallel_for_indexed over its cases. The
/// asynchronous eval::EvalService runs its own FIFO workers and does
/// not use it; both size their threads with resolve_jobs, so one cap
/// (kMaxJobs) bounds either pool.
/// A lazily-initialized process-wide Scheduler keeps its workers alive
/// across calls. Each `parallel_for_indexed` region is one shared claim
/// counter: every participant takes the next unclaimed index until none
/// is left, so uneven per-index costs balance themselves. Design rules:
///
///   - workers communicate only through index-addressed result slots,
///     so a parallel run is bit-identical to the serial loop no matter
///     which thread claims which index;
///   - exceptions propagate: the exception of the lowest failing index
///     (among those that ran) is rethrown on the calling thread and
///     indices not yet claimed are skipped;
///   - `jobs == 1` never touches the scheduler — it is the plain serial
///     loop on the calling thread, byte-for-byte the pre-pool path.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rip {

/// The most threads one parallel region or one EvalService runs:
/// enough for any sane `--jobs` value while bounding a pathological
/// request.
constexpr int kMaxJobs = 256;

/// Resolve a user-facing `--jobs` value: N >= 1 is taken literally;
/// 0 or negative means "one per hardware thread" (at least 1). Either
/// way the result is at most kMaxJobs.
int resolve_jobs(int jobs);

/// Persistent per-process scheduler. Workers are started lazily on the
/// first parallel region that needs them and are reused by every later
/// call (no per-call thread spin-up); the pool only ever grows, up to
/// the largest resolved `jobs` requested minus the calling thread, and
/// is joined at process exit. A region's participants claim indices one
/// at a time from a shared atomic counter, so one giant case among many
/// tiny ones holds up only the participant running it.
///
/// The calling thread always participates in its own region and keeps
/// claiming until no index is left — nested `parallel_for_indexed`
/// calls from inside a worker therefore cannot deadlock even when every
/// pool worker is busy.
class Scheduler {
 public:
  /// The process-wide instance, created on first use.
  static Scheduler& global();

  /// True once global() has been called (the singleton exists). jobs=1
  /// paths never create it.
  static bool exists();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  /// Pool workers currently alive (excludes calling threads).
  int worker_count() const;

  /// Run fn(0) .. fn(count-1) using up to `jobs` threads (this one plus
  /// pool workers) and block until every index has run or the region
  /// was cancelled by a failure. On failure the exception of the lowest
  /// failing index (among those that ran) is rethrown here.
  void parallel_for_indexed(std::size_t count, int jobs,
                            const std::function<void(std::size_t)>& fn);

 private:
  Scheduler() = default;

  struct Region;
  static void run_region(Region& region);
  void ensure_workers(int target);
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable task_ready_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// The standard entry point. After resolve_jobs, `jobs == 1` (or
/// count <= 1) runs the serial loop on the calling thread — the
/// reference path the golden tests pin — without ever creating the
/// scheduler; otherwise the call goes through Scheduler::global().
void parallel_for_indexed(std::size_t count, int jobs,
                          const std::function<void(std::size_t)>& fn);

}  // namespace rip
