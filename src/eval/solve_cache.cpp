#include "eval/solve_cache.hpp"

#include <algorithm>
#include <utility>

#include "util/fault.hpp"
#include "util/hash.hpp"

namespace rip::eval {

SolveCache::SolveCache(const SolveCacheOptions& options) {
  capacity_ = std::max<std::size_t>(1, options.capacity);
  // Clamp shards to capacity: a capacity-1 cache must behave as one
  // strict global LRU, not as N shards that each think they may hold an
  // entry.
  const std::size_t shards =
      std::clamp<std::size_t>(options.shard_count, 1, capacity_);
  shard_capacity_ = (capacity_ + shards - 1) / shards;
  if (options.max_bytes > 0) {
    shard_byte_budget_ = std::max<std::uint64_t>(1, options.max_bytes / shards);
  }
  shards_ = std::vector<Shard>(shards);
}

SolveCache::Shard& SolveCache::shard_of(std::uint64_t key) {
  // Re-mix so the stripe does not correlate with unordered_map's bucket
  // choice (which typically uses the low bits of the same key).
  const std::uint64_t mixed = Hash64::mix(key);
  return shards_[static_cast<std::size_t>(mixed >> 32) % shards_.size()];
}

std::shared_ptr<const dp::ChainFrontierSolve> SolveCache::lookup(
    std::uint64_t key) {
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second.solve;
}

void SolveCache::evict_lru(Shard& shard) {
  const std::uint64_t victim = shard.lru.back();
  const auto vit = shard.map.find(victim);
  shard.bytes -= vit->second.solve->bytes();
  shard.map.erase(vit);
  shard.lru.pop_back();
  ++shard.evictions;
}

std::shared_ptr<const dp::ChainFrontierSolve> SolveCache::insert(
    std::uint64_t key, dp::ChainFrontierSolve solve) {
  // Injected insert failure: the solve is still handed back to the
  // caller (results stay correct); it just is not retained, so the
  // cache degrades to extra misses — never to wrong answers.
  if (fire_fault_soft("cache.insert", key)) {
    Shard& shard = shard_of(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.insert_failures;
    return std::make_shared<const dp::ChainFrontierSolve>(std::move(solve));
  }
  Shard& shard = shard_of(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Another thread solved the same key first. Equal keys mean
    // bit-identical frontiers, so keep the resident entry (callers
    // select from the returned pointer, so everyone answers from the
    // same arrays) and drop the duplicate.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return it->second.solve;
  }
  while (shard.map.size() >= shard_capacity_) {
    evict_lru(shard);
  }
  auto stored =
      std::make_shared<const dp::ChainFrontierSolve>(std::move(solve));
  shard.lru.push_front(key);
  shard.bytes += stored->bytes();
  shard.map.emplace(key, Entry{stored, shard.lru.begin()});
  ++shard.insertions;
  // Byte budget: evict LRU tails until under budget, but never the entry
  // just stored — a single oversized frontier must pass through, not
  // pin the insert path in a livelock.
  while (shard_byte_budget_ > 0 && shard.bytes > shard_byte_budget_ &&
         shard.map.size() > 1) {
    evict_lru(shard);
  }
  return stored;
}

void SolveCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
    shard.lru.clear();
    shard.bytes = 0;
  }
}

SolveCacheStats SolveCache::stats() const {
  SolveCacheStats out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.insertions += shard.insertions;
    out.evictions += shard.evictions;
    out.insert_failures += shard.insert_failures;
    out.entries += shard.map.size();
    out.bytes += shard.bytes;
  }
  return out;
}

}  // namespace rip::eval
