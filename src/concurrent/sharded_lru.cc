#include "src/concurrent/sharded_lru.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/random.h"

namespace qdlp {

ShardedLruCache::ShardedLruCache(size_t capacity, size_t num_shards)
    : capacity_(capacity) {
  QDLP_CHECK(num_shards >= 1);
  num_shards = std::min(num_shards, capacity);
  shards_.reserve(num_shards);
  const size_t base = capacity / num_shards;
  size_t remainder = capacity % num_shards;
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (remainder > 0 ? 1 : 0);
    if (remainder > 0) {
      --remainder;
    }
    shard->index.reserve(shard->capacity);
    shards_.push_back(std::move(shard));
  }
}

void ShardedLruCache::CheckInvariants() {
  size_t total_capacity = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total_capacity += shard->capacity;
    QDLP_CHECK(shard->index.size() <= shard->capacity);
    QDLP_CHECK(shard->index.size() == shard->mru_list.size());
    for (auto it = shard->mru_list.begin(); it != shard->mru_list.end();
         ++it) {
      const auto entry = shard->index.find(*it);
      QDLP_CHECK(entry != shard->index.end());
      QDLP_CHECK(entry->second == it);
      // Ids hash to the shard that stores them.
      QDLP_CHECK(&ShardFor(*it) == shard.get());
    }
    const CacheStats& c = shard->counters;
    QDLP_CHECK(c.inserts <= c.misses);
    QDLP_CHECK(c.inserts >= c.evictions);
    QDLP_CHECK(c.inserts - c.evictions == shard->index.size());
  }
  QDLP_CHECK(total_capacity == capacity_);
}

size_t ShardedLruCache::ApproxMetadataBytes() const {
  // std::list node: prev/next pointers + value; unordered_map node:
  // bucket-chain pointer + key + iterator. Approximate, like the design
  // they stand in for (pointer-chased memcached-style LRU).
  size_t bytes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    bytes += shard->mru_list.size() *
             (2 * sizeof(void*) + sizeof(ObjectId));
    bytes += shard->index.size() *
             (sizeof(void*) + sizeof(ObjectId) +
              sizeof(std::list<ObjectId>::iterator));
    bytes += shard->index.bucket_count() * sizeof(void*);
  }
  return bytes;
}

CacheStats ShardedLruCache::Stats() const {
  CacheStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const CacheStats& c = shard->counters;
    stats.hits += c.hits;
    stats.misses += c.misses;
    stats.inserts += c.inserts;
    stats.evictions += c.evictions;
    stats.size += shard->index.size();
  }
  stats.requests = stats.hits + stats.misses;
  stats.promotions = stats.hits;
  return stats;
}

ShardedLruCache::Shard& ShardedLruCache::ShardFor(ObjectId id) {
  return *shards_[ShardIndex(id)];
}

const ShardedLruCache::Shard& ShardedLruCache::ShardFor(ObjectId id) const {
  return *shards_[ShardIndex(id)];
}

size_t ShardedLruCache::ShardIndex(ObjectId id) const {
  // One shard (GlobalLockLruCache) skips the hash and the 64-bit division,
  // which cost the single-threaded baseline about a fifth of its rate.
  return shards_.size() == 1 ? 0 : SplitMix64(id) % shards_.size();
}

bool ShardedLruCache::Get(ObjectId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  // requests == hits + misses and promotions == hits (eager promotion) are
  // identities, derived in Stats() rather than stored per Get.
  const auto it = shard.index.find(id);
  if (it != shard.index.end()) {
    shard.mru_list.splice(shard.mru_list.begin(), shard.mru_list, it->second);
    ++shard.counters.hits;
    return true;
  }
  ++shard.counters.misses;
  if (shard.index.size() >= shard.capacity) {
    const ObjectId victim = shard.mru_list.back();
    shard.mru_list.pop_back();
    shard.index.erase(victim);
    ++shard.counters.evictions;
  }
  shard.mru_list.push_front(id);
  shard.index[id] = shard.mru_list.begin();
  ++shard.counters.inserts;
  return false;
}

bool ShardedLruCache::Remove(ObjectId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(id);
  if (it == shard.index.end()) {
    return false;
  }
  shard.mru_list.erase(it->second);
  shard.index.erase(it);
  ++shard.counters.evictions;
  return true;
}

}  // namespace qdlp
