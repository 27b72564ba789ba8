// LRU sharded across N independently-locked segments — the standard
// mitigation for LRU lock contention. Hits still take an exclusive lock, but
// only 1/N threads collide per shard. With one shard it is LRU behind a
// single global mutex (GlobalLockLruCache below), the baseline whose
// hit-path lock contention the paper's FIFO argument targets.
//
// Each shard is a mutex around one sequential LruPolicy (the slab LRU the
// simulator replays), so the concurrent LRU and the simulated one are the
// same code: Get is Access, Remove is Remove, and the counters are the
// policy's own.

#ifndef QDLP_SRC_CONCURRENT_SHARDED_LRU_H_
#define QDLP_SRC_CONCURRENT_SHARDED_LRU_H_

#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/policies/lru.h"

namespace qdlp {

class ShardedLruCache : public ConcurrentCache {
 public:
  // Ids route to shard SplitMix64(id) % N. N is clamped to the capacity,
  // and the first capacity % N shards get one slot more than the rest, so
  // the shares sum to exactly `capacity`.
  ShardedLruCache(size_t capacity, size_t num_shards = 16);

  bool Get(ObjectId id) override;
  // Get() already blocks on the shard lock and always admits.
  bool Admit(ObjectId id) override { return Get(id); }
  size_t capacity() const override { return capacity_; }
  std::string_view name() const override { return "sharded-lru"; }

  // Removal locks only the owning shard, like Get().
  bool Remove(ObjectId id) override;

  // The shards' policy counters, summed shard by shard under each shard's
  // lock (no cross-shard contention added), so cross-counter relations are
  // exact only at quiescent points.
  CacheStats Stats() const override;

  // Each shard's LruPolicy invariants and counter identities, every
  // resident on the shard its id routes to, and shares summing to the
  // capacity.
  void CheckInvariants() override;

  // The shards' measured slab and index bytes.
  size_t ApproxMetadataBytes() const override;

 private:
  struct Shard {
    explicit Shard(size_t capacity) : lru(capacity) {}
    std::mutex mu;
    LruPolicy lru;  // guarded by mu
  };

  Shard& ShardFor(ObjectId id) { return *shards_[ShardIndex(id)]; }
  size_t ShardIndex(ObjectId id) const;

  const size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// One shard: every operation, hits included, serializes on one mutex (the
// naive memcached-style design). Stats() reads that one shard under its
// lock, so it is exact at any instant, not only at quiescent points.
class GlobalLockLruCache : public ShardedLruCache {
 public:
  explicit GlobalLockLruCache(size_t capacity)
      : ShardedLruCache(capacity, /*num_shards=*/1) {}

  std::string_view name() const override { return "global-lock-lru"; }
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_SHARDED_LRU_H_
