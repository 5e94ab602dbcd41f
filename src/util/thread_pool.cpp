#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <optional>
#include <utility>

#include "util/error.hpp"

namespace rip {
namespace {

// Growth cap for the persistent pool: enough for any sane --jobs value
// while bounding a pathological request. The calling thread always
// participates, so jobs=N needs at most N-1 pool workers.
constexpr int kMaxWorkers = 256;

std::atomic<bool> g_scheduler_exists{false};

/// Serial, deterministic chunk plan: contiguous [begin, end) ranges
/// covering [0, count) exactly once. `participants` is only a sizing
/// hint — the plan never depends on which thread runs what.
std::vector<std::pair<std::size_t, std::size_t>> make_chunks(
    std::size_t count, std::size_t participants, const ChunkPolicy& policy) {
  const std::size_t p = std::max<std::size_t>(participants, 1);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  auto fixed = [&](std::size_t grain) {
    for (std::size_t b = 0; b < count; b += grain) {
      chunks.emplace_back(b, std::min(b + grain, count));
    }
  };
  switch (policy.mode) {
    case ChunkPolicy::Mode::kStatic:
      fixed(std::max<std::size_t>(
          policy.grain != 0 ? policy.grain : (count + p - 1) / p, 1));
      break;
    case ChunkPolicy::Mode::kDynamic:
      fixed(std::max<std::size_t>(
          policy.grain != 0 ? policy.grain : count / (8 * p), 1));
      break;
    case ChunkPolicy::Mode::kGuided: {
      const std::size_t floor = std::max<std::size_t>(policy.grain, 1);
      std::size_t b = 0;
      while (b < count) {
        const std::size_t size =
            std::min(std::max((count - b) / (2 * p), floor), count - b);
        chunks.emplace_back(b, b + size);
        b += size;
      }
      break;
    }
  }
  return chunks;
}

}  // namespace

int resolve_jobs(int jobs) {
  if (jobs >= 1) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// One parallel_for call. Shared between the caller and the pool
/// workers that join it; kept alive by shared_ptr until the last
/// participant leaves, so late joiners of a finished region are no-ops.
struct Scheduler::Region {
  /// Borrowed from the caller's frame, which outlives the region's
  /// work: the caller blocks until the last chunk has run.
  const std::function<void(std::size_t)>* fn = nullptr;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;

  /// Per-participant work deque. The owner pops from the front
  /// (ascending indices, cache-friendly); thieves steal from the back —
  /// the Chase-Lev owner/thief discipline, with a per-deque mutex
  /// instead of the lock-free CAS dance (chunks are coarse enough that
  /// the lock is not a bottleneck, and it keeps TSan trivially clean).
  struct WorkDeque {
    std::mutex mutex;
    std::deque<std::size_t> chunk_ids;
  };
  std::vector<std::unique_ptr<WorkDeque>> deques;

  std::atomic<std::size_t> remaining{0};
  std::atomic<bool> cancelled{false};
  std::mutex mutex;
  std::condition_variable done;
  bool finished = false;
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
  target = std::min(target, kMaxWorkers);
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

void Scheduler::run_region(const std::shared_ptr<Region>& region,
                           int participant) {
  Region& r = *region;
  const int fanout = static_cast<int>(r.deques.size());

  auto pop_own = [&]() -> std::optional<std::size_t> {
    auto& dq = *r.deques[static_cast<std::size_t>(participant)];
    std::lock_guard<std::mutex> lock(dq.mutex);
    if (dq.chunk_ids.empty()) return std::nullopt;
    const std::size_t id = dq.chunk_ids.front();
    dq.chunk_ids.pop_front();
    return id;
  };
  auto steal = [&]() -> std::optional<std::size_t> {
    for (int k = 1; k < fanout; ++k) {
      auto& dq = *r.deques[static_cast<std::size_t>((participant + k) %
                                                    fanout)];
      std::lock_guard<std::mutex> lock(dq.mutex);
      if (dq.chunk_ids.empty()) continue;
      const std::size_t id = dq.chunk_ids.back();
      dq.chunk_ids.pop_back();
      return id;
    }
    return std::nullopt;
  };

  for (;;) {
    auto id = pop_own();
    if (!id) id = steal();
    // Every deque is empty: whatever remains is in flight on other
    // participants, who will finish it — safe to leave.
    if (!id) return;

    const auto [begin, end] = r.chunks[*id];
    for (std::size_t i = begin; i < end; ++i) {
      if (r.cancelled.load(std::memory_order_relaxed)) break;
      try {
        (*r.fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(r.mutex);
        if (i < r.error_index) {
          r.error_index = i;
          r.error = std::current_exception();
        }
        r.cancelled.store(true, std::memory_order_relaxed);
        break;
      }
    }
    if (r.remaining.fetch_sub(1) == 1) {
      {
        std::lock_guard<std::mutex> lock(r.mutex);
        r.finished = true;
      }
      r.done.notify_all();
    }
  }
}

void Scheduler::parallel_for_indexed(
    std::size_t count, int jobs, const std::function<void(std::size_t)>& fn,
    const ChunkPolicy& policy) {
  if (count == 0) return;
  const std::size_t resolved =
      static_cast<std::size_t>(resolve_jobs(jobs));
  if (resolved <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // Cut the region into chunks and deal them round-robin across
  // per-participant deques: ascending chunks interleave across
  // participants, so contiguous hot spots spread out even before any
  // steal happens. No locks needed — workers have not seen the region.
  auto region = std::make_shared<Region>();
  region->fn = &fn;
  region->chunks = make_chunks(count, std::min(resolved, count), policy);
  const int fanout = static_cast<int>(
      std::min<std::size_t>(resolved, region->chunks.size()));
  if (fanout <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  region->remaining.store(region->chunks.size());
  for (int p = 0; p < fanout; ++p) {
    region->deques.push_back(std::make_unique<Region::WorkDeque>());
  }
  for (std::size_t c = 0; c < region->chunks.size(); ++c) {
    region->deques[c % static_cast<std::size_t>(fanout)]
        ->chunk_ids.push_back(c);
  }

  ensure_workers(fanout - 1);
  // Participant 0 is the caller; only 1..fanout-1 go to the pool.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int p = 1; p < fanout; ++p) {
      queue_.push_back([region, p] { run_region(region, p); });
    }
  }
  task_ready_.notify_all();

  // The caller is participant 0 and keeps popping/stealing until no
  // chunk is left unclaimed — it can drain the whole region alone if
  // the pool is busy, which is what makes nested calls deadlock-free.
  run_region(region, 0);

  std::unique_lock<std::mutex> lock(region->mutex);
  region->done.wait(lock, [&] { return region->finished; });
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
  parallel_for_indexed(count, jobs, ChunkPolicy{}, fn);
}

void parallel_for_indexed(std::size_t count, int jobs,
                          const ChunkPolicy& policy,
                          const std::function<void(std::size_t)>& fn) {
  const int resolved = resolve_jobs(jobs);
  if (resolved <= 1 || count <= 1) {
    // Serial reference path: never touches (or creates) the scheduler.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  Scheduler::global().parallel_for_indexed(count, resolved, fn, policy);
}

}  // namespace rip
