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
  const size_t remainder = capacity % num_shards;
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(base + (i < remainder ? 1 : 0)));
  }
}

size_t ShardedLruCache::ShardIndex(ObjectId id) const {
  // One shard (GlobalLockLruCache) skips the hash and the 64-bit division,
  // which cost the single-threaded baseline about a fifth of its rate.
  return shards_.size() == 1 ? 0 : SplitMix64(id) % shards_.size();
}

bool ShardedLruCache::Get(ObjectId id) {
  Shard& shard = ShardFor(id);
  const std::lock_guard<std::mutex> lock(shard.mu);
  return shard.lru.Access(id);
}

bool ShardedLruCache::Remove(ObjectId id) {
  Shard& shard = ShardFor(id);
  const std::lock_guard<std::mutex> lock(shard.mu);
  return shard.lru.Remove(id);
}

CacheStats ShardedLruCache::Stats() const {
  CacheStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const CacheStats part = shard->lru.Stats();
    for (const CacheStatsField& field : kCacheStatsFields) {
      stats.*field.member += part.*field.member;
    }
  }
  return stats;
}

void ShardedLruCache::CheckInvariants() {
  size_t total_capacity = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    total_capacity += shard.lru.capacity();
    shard.lru.CheckInvariants();
    // Ids live on the shard they route to.
    shard.lru.ForEachResident(
        [&](ObjectId id) { QDLP_CHECK(ShardIndex(id) == s); });
  }
  QDLP_CHECK(total_capacity == capacity_);
}

size_t ShardedLruCache::ApproxMetadataBytes() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    bytes += shard->lru.ApproxMetadataBytes();
  }
  return bytes;
}

}  // namespace qdlp
