#pragma once

/// @file bench_env.hpp
/// Shared configuration for the table-regeneration benches. Every knob
/// has an environment-variable default (so CI can shrink runs globally)
/// that the command line overrides per invocation:
///   RIP_BENCH_NETS     / --nets N     population size (paper: 20)
///   RIP_BENCH_TARGETS  / --targets N  timing targets per net (paper: 20)
///   RIP_BENCH_JOBS     / --jobs N     worker threads (1 = serial,
///                                     0 = all hardware threads)
///                / --shard I/N        solve shard I of an N-way split

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

// ---------------------------------------------------- allocation counting
//
// Every bench binary replaces the global operator new/delete with a
// counting malloc shim, so zero-steady-state-allocation claims (the DP
// workspace, bench_dp's per-solve assertion) are *measured*, not
// eyeballed. The hook lives here in the bench — the library itself stays
// untouched — and is safe because each bench executable consists of
// exactly one translation unit that includes this header (replacement
// allocation functions must be defined once per program and must not be
// inline).

namespace rip::bench {
namespace alloc_detail {
// Process-wide totals. Relaxed fetch_add keeps every increment exact
// (atomic RMW can never tear or drop a count — relaxed only frees the
// *ordering* against other memory, which nothing here relies on) at a
// fraction of the seq_cst cost on the malloc hot path.
inline std::atomic<std::uint64_t> count{0};
inline std::atomic<std::uint64_t> bytes{0};
// Per-thread counters, bumped alongside the globals. These are what
// make per-solve sampling exact under --jobs > 1: a global sample taken
// around one worker's solve would also count every allocation its
// neighbours performed in that window, but a thread can read its own
// counter free of any cross-thread traffic.
inline thread_local std::uint64_t thread_count = 0;
inline thread_local std::uint64_t thread_bytes = 0;

inline void* counted_alloc(std::size_t size) noexcept {
  count.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(size, std::memory_order_relaxed);
  ++thread_count;
  thread_bytes += size;
  return std::malloc(size != 0 ? size : 1);
}

inline void* counted_aligned_alloc(std::size_t size,
                                   std::size_t align) noexcept {
  count.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(size, std::memory_order_relaxed);
  ++thread_count;
  thread_bytes += size;
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded != 0 ? rounded : align);
}
}  // namespace alloc_detail

/// Heap allocations (any thread) since process start.
inline std::uint64_t alloc_count() {
  return alloc_detail::count.load(std::memory_order_relaxed);
}

/// Bytes requested from the heap since process start.
inline std::uint64_t alloc_bytes() {
  return alloc_detail::bytes.load(std::memory_order_relaxed);
}

/// Heap allocations performed by the *calling thread* since it started.
inline std::uint64_t thread_alloc_count() {
  return alloc_detail::thread_count;
}

/// Scoped sample: allocations between construction and delta().
/// Process-wide — only meaningful when nothing else is allocating
/// concurrently (jobs=1). Use ThreadAllocSample inside parallel workers.
class AllocSample {
 public:
  AllocSample() : start_(alloc_count()) {}
  std::uint64_t delta() const { return alloc_count() - start_; }

 private:
  std::uint64_t start_;
};

/// Scoped sample of the calling thread's own allocations. Exact at any
/// job count: construct and read delta() on the same thread that runs
/// the measured code.
class ThreadAllocSample {
 public:
  ThreadAllocSample() : start_(thread_alloc_count()) {}
  std::uint64_t delta() const { return thread_alloc_count() - start_; }

 private:
  std::uint64_t start_;
};

}  // namespace rip::bench

void* operator new(std::size_t size) {
  if (void* p = rip::bench::alloc_detail::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return rip::bench::alloc_detail::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return rip::bench::alloc_detail::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = rip::bench::alloc_detail::counted_aligned_alloc(
          size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return rip::bench::alloc_detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return rip::bench::alloc_detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rip::bench {

inline int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  try {
    return std::stoi(value);
  } catch (...) {
    return fallback;
  }
}

inline int net_count(int fallback = 20) {
  return env_int("RIP_BENCH_NETS", fallback);
}

inline int targets_per_net(int fallback = 20) {
  return env_int("RIP_BENCH_TARGETS", fallback);
}

inline int jobs(int fallback = 1) {
  return env_int("RIP_BENCH_JOBS", fallback);
}

/// CLI-over-environment resolution used by every bench main().
inline int net_count(const CliArgs& args, int fallback = 20) {
  return args.get_int_or("nets", net_count(fallback));
}

inline int targets_per_net(const CliArgs& args, int fallback = 20) {
  return args.get_int_or("targets", targets_per_net(fallback));
}

/// Resolved worker-thread count (`--jobs`, then RIP_BENCH_JOBS, then
/// `fallback`; 0 = all hardware threads).
inline int jobs(const CliArgs& args, int fallback = 1) {
  return parallel_jobs(args, jobs(fallback));
}

/// The `--shard I/N` split of a sweep (default: unsharded).
inline ShardSpec shard(const CliArgs& args) { return shard_option(args); }

/// Every bench declares `--help` as a boolean flag; main() answers it
/// with `return bench::usage("bench_x [--opt V] ...")`, which prints
/// the usage line and exits 0.
inline int usage(const char* synopsis) {
  std::cout << "usage: " << synopsis << "\n";
  return 0;
}

/// Flag mistyped options instead of silently ignoring them (mirrors
/// rip_cli); call after every option has been read.
inline void warn_unused(const CliArgs& args) {
  for (const auto& name : args.unused()) {
    std::cerr << "warning: unused option --" << name << "\n";
  }
}

}  // namespace rip::bench
