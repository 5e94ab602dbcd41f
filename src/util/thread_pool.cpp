#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <utility>

#include "util/error.hpp"

namespace rip {
namespace {

std::atomic<bool> g_scheduler_exists{false};

}  // namespace

int resolve_jobs(int jobs) {
  if (jobs < 1) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = hw == 0 ? 1 : static_cast<int>(std::min(hw, unsigned{kMaxJobs}));
  }
  return std::min(jobs, kMaxJobs);
}

/// One parallel_for call. Shared between the caller and the pool
/// workers that join it; kept alive by shared_ptr until the last
/// participant leaves, so late joiners of a finished region are no-ops.
struct Scheduler::Region {
  /// Borrowed from the caller's frame, which outlives the region's
  /// work: the caller blocks until every index has settled.
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  /// The next unclaimed index; every participant claims from it.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};
  /// Guards the fields below; `done` fires when `settled` reaches count.
  std::mutex mutex;
  std::condition_variable done;
  /// Claimed indices that have run or been skipped after a failure.
  std::size_t settled = 0;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
};

Scheduler& Scheduler::global() {
  static Scheduler instance;
  g_scheduler_exists.store(true, std::memory_order_release);
  return instance;
}

bool Scheduler::exists() {
  return g_scheduler_exists.load(std::memory_order_acquire);
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

int Scheduler::worker_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(workers_.size());
}

void Scheduler::ensure_workers(int target) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (static_cast<int>(workers_.size()) < target) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Scheduler::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping: stale join tasks for
      // finished regions are no-ops and must not outlive the pool.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void Scheduler::run_region(Region& r) {
  std::size_t claimed = 0;
  for (;;) {
    const std::size_t i = r.next.fetch_add(1);
    if (i >= r.count) break;
    ++claimed;
    if (r.cancelled.load(std::memory_order_relaxed)) continue;
    try {
      (*r.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(r.mutex);
      if (i < r.error_index) {
        r.error_index = i;
        r.error = std::current_exception();
      }
      r.cancelled.store(true, std::memory_order_relaxed);
    }
  }
  // Settle this participant's claims in one step; whoever settles the
  // last index wakes the caller.
  if (claimed == 0) return;
  std::lock_guard<std::mutex> lock(r.mutex);
  r.settled += claimed;
  if (r.settled == r.count) r.done.notify_all();
}

void Scheduler::parallel_for_indexed(
    std::size_t count, int jobs, const std::function<void(std::size_t)>& fn) {
  const std::size_t fanout = std::min(
      static_cast<std::size_t>(resolve_jobs(jobs)), count);
  if (fanout <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  auto region = std::make_shared<Region>();
  region->fn = &fn;
  region->count = count;
  ensure_workers(static_cast<int>(fanout) - 1);
  // The caller is one participant; the other fanout-1 go to the pool.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t p = 1; p < fanout; ++p) {
      queue_.push_back([region] { run_region(*region); });
    }
  }
  task_ready_.notify_all();

  // The caller keeps claiming until no index is left — it can drain the
  // whole region alone if the pool is busy, which is what makes nested
  // calls deadlock-free.
  run_region(*region);

  std::unique_lock<std::mutex> lock(region->mutex);
  region->done.wait(lock, [&] { return region->settled == count; });
  // Take the exception out of the region before rethrowing: late pool
  // workers may still drop their (stale) region references, and the
  // exception object must not be co-owned by anything another thread
  // can release while the caller is reading it.
  std::exception_ptr error = std::move(region->error);
  region->error = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void parallel_for_indexed(std::size_t count, int jobs,
                          const std::function<void(std::size_t)>& fn) {
  const int resolved = resolve_jobs(jobs);
  if (resolved <= 1 || count <= 1) {
    // Serial reference path: never touches (or creates) the scheduler.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  Scheduler::global().parallel_for_indexed(count, resolved, fn);
}

}  // namespace rip
