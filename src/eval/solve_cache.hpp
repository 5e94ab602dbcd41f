#pragma once

/// @file solve_cache.hpp
/// Sharded, thread-safe LRU cache of Pareto-frontier solves.
///
/// Production traffic against a repeater-insertion service is dominated
/// by near-duplicate queries: the same nets re-solved at slightly
/// different timing targets while a caller explores the power/delay
/// trade-off. The chain DP already computes the *complete* frontier per
/// solve, and PR 6's target-relative kernel makes that frontier
/// independent of the target — so caching one solve answers every target
/// on that net with an O(frontier) selection walk instead of a DP run.
///
/// Design:
///  - Keyed on dp::chain_solve_key — a canonical 64-bit hash of (net
///    geometry, device, library contents, candidates, mode,
///    allowed_buffers), compared by hash only (util/hash.hpp documents
///    the collision trade).
///  - Sharded: N independently-locked shards, each an unordered_map plus
///    an intrusive LRU list. The shard stripe is derived by re-mixing the
///    key (Hash64::mix) so it does not correlate with the map's bucket
///    index. Concurrent solvers on different nets almost never contend.
///  - Values are shared_ptr<const ChainFrontierSolve>: a hit hands out a
///    reference without copying, and an entry evicted mid-use stays alive
///    until its last reader drops it.
///  - Capacity is a global entry bound, enforced per shard
///    (ceil(capacity/shards) each). With capacity <= shards the shard
///    count collapses to 1 so eviction pressure behaves as a strict
///    global LRU (the capacity-1 property tests rely on this).
///  - No expiry: the key covers every input the sweep reads, the
///    objective backend's fingerprint and per-net coefficients included,
///    so an entry cannot go stale; only capacity and the byte budget
///    evict.
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dp/chain_dp.hpp"

namespace rip::eval {

struct SolveCacheOptions {
  /// Maximum retained entries across all shards (>= 1).
  std::size_t capacity = 1024;
  /// Requested shard count; clamped to [1, capacity]. More shards =
  /// less lock contention, slightly sloppier per-shard LRU capacity.
  std::size_t shard_count = 16;
  /// Byte budget across all shards (0 = unbounded). Enforced per shard
  /// (budget/shards each) by LRU eviction on insert, so a long-lived
  /// service under an adversarial key stream degrades hit rate instead
  /// of growing without bound. A shard always keeps at least its newest
  /// entry, so one oversized frontier cannot wedge the cache.
  std::uint64_t max_bytes = 0;
};

/// Counter snapshot, summed over shards. Monotonic except entries/bytes.
struct SolveCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;  ///< entries stored (racing dups excluded)
  std::uint64_t evictions = 0;   ///< LRU evictions (capacity or byte budget)
  std::uint64_t insert_failures = 0; ///< inserts dropped (injected faults)
  std::uint64_t entries = 0;     ///< currently resident entries
  std::uint64_t bytes = 0;       ///< approximate resident footprint

  std::uint64_t lookups() const { return hits + misses; }
  double hit_rate() const {
    const std::uint64_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

/// The concrete dp::ChainSolveCache. Thread-safe; const lookups still
/// take the shard lock (they update LRU order and counters).
class SolveCache final : public dp::ChainSolveCache {
 public:
  explicit SolveCache(const SolveCacheOptions& options = {});

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  std::shared_ptr<const dp::ChainFrontierSolve> lookup(
      std::uint64_t key) override;
  std::shared_ptr<const dp::ChainFrontierSolve> insert(
      std::uint64_t key, dp::ChainFrontierSolve solve) override;

  /// Drop every entry (counters other than entries/bytes are kept).
  void clear();

  SolveCacheStats stats() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t shard_count() const { return shards_.size(); }

 private:
  struct Entry {
    std::shared_ptr<const dp::ChainFrontierSolve> solve;
    std::list<std::uint64_t>::iterator lru_it;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, Entry> map;
    /// Front = most recently used; back = eviction victim.
    std::list<std::uint64_t> lru;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insert_failures = 0;
    std::uint64_t bytes = 0;
  };

  Shard& shard_of(std::uint64_t key);
  void evict_lru(Shard& shard);

  std::size_t capacity_ = 1;
  std::size_t shard_capacity_ = 1;
  std::uint64_t shard_byte_budget_ = 0;  ///< 0 = unbounded
  std::vector<Shard> shards_;
};

}  // namespace rip::eval
