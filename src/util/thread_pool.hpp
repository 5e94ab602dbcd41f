#pragma once

/// @file thread_pool.hpp
/// The persistent per-process scheduler behind every blocking batch
/// evaluation path (eval::run_cases, the table runners, the bench
/// binaries). The asynchronous eval::EvalService runs its own FIFO
/// workers and does not use it.
/// PR 2's spin-up-per-call pool is retired: a lazily-initialized
/// process-wide Scheduler keeps its workers alive across calls, cuts
/// each `parallel_for_indexed` region into chunks (ChunkPolicy), and
/// balances uneven per-index costs by work stealing between
/// per-participant deques. Design rules, unchanged since PR 2:
///
///   - workers communicate only through index-addressed result slots,
///     so a parallel run is bit-identical to the serial loop no matter
///     how chunks are scheduled or stolen across threads;
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

/// Resolve a user-facing `--jobs` value: N >= 1 is taken literally;
/// 0 or negative means "one per hardware thread" (at least 1).
int resolve_jobs(int jobs);

/// How a parallel_for region is cut into contiguous index chunks.
/// Chunking is computed serially up front, so the chunk list — and
/// therefore which indices exist — is identical at any job count; only
/// which thread runs a chunk varies, which the index-addressed-slot
/// rule makes invisible.
struct ChunkPolicy {
  enum class Mode {
    kStatic,   ///< fixed chunks assigned round-robin; grain 0 = count/P
    kDynamic,  ///< fixed `grain`-sized chunks, stolen freely (default)
    kGuided,   ///< decreasing chunk sizes: remaining/(2P), floor `grain`
  };
  Mode mode = Mode::kDynamic;
  /// Indices per chunk; 0 picks an automatic grain (dynamic:
  /// count/(8P), static: count/P, guided: 1), always at least 1.
  std::size_t grain = 0;
};

/// Persistent per-process scheduler. Workers are started lazily on the
/// first parallel region that needs them and are reused by every later
/// call (no per-call thread spin-up); the pool only ever grows, up to
/// the largest `jobs` requested (capped), and is joined at process
/// exit. Each region gets per-participant deques: a participant pops
/// its own deque from the front and steals from the back of others'
/// (Chase-Lev-style owner/thief ends), so one giant case among many
/// tiny ones no longer serializes a worker's whole static slice.
///
/// The calling thread always participates as a worker of its own
/// region and drains whatever the pool does not take — nested
/// `parallel_for_indexed` calls from inside a worker therefore cannot
/// deadlock even when every pool worker is busy.
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
                            const std::function<void(std::size_t)>& fn,
                            const ChunkPolicy& policy = {});

 private:
  Scheduler() = default;

  struct Region;
  static void run_region(const std::shared_ptr<Region>& region,
                         int participant);
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

/// Same, with an explicit chunking/stealing policy.
void parallel_for_indexed(std::size_t count, int jobs,
                          const ChunkPolicy& policy,
                          const std::function<void(std::size_t)>& fn);

}  // namespace rip
