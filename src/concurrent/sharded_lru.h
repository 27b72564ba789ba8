// LRU sharded across N independently-locked segments — the standard
// mitigation for LRU lock contention. Hits still take an exclusive lock, but
// only 1/N threads collide per shard. With one shard it is LRU behind a
// single global mutex (GlobalLockLruCache below), the baseline whose
// hit-path lock contention the paper's FIFO argument targets.

#ifndef QDLP_SRC_CONCURRENT_SHARDED_LRU_H_
#define QDLP_SRC_CONCURRENT_SHARDED_LRU_H_

#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/concurrent/concurrent_cache.h"

namespace qdlp {

class ShardedLruCache : public ConcurrentCache {
 public:
  ShardedLruCache(size_t capacity, size_t num_shards = 16);

  bool Get(ObjectId id) override;
  // Get() already blocks on the shard lock and always admits.
  bool Admit(ObjectId id) override { return Get(id); }
  size_t capacity() const override { return capacity_; }
  std::string_view name() const override { return "sharded-lru"; }

  // Removal locks only the owning shard, like Get().
  bool Remove(ObjectId id) override;

  // Telemetry is per-shard counters guarded by the shard locks the
  // operations already hold (no cross-shard contention added); Stats()
  // sums them shard by shard, so cross-counter relations are exact only at
  // quiescent points.
  CacheStats Stats() const override;

  // Per-shard list/index agreement and capacity accounting.
  void CheckInvariants() override;

  size_t ApproxMetadataBytes() const override;

 private:
  struct Shard {
    std::mutex mu;
    size_t capacity = 0;
    std::list<ObjectId> mru_list;
    std::unordered_map<ObjectId, std::list<ObjectId>::iterator> index;
    CacheStats counters;  // flow counters only; guarded by mu
  };

  Shard& ShardFor(ObjectId id);
  const Shard& ShardFor(ObjectId id) const;
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
