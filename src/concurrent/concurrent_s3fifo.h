// Thread-safe S3-FIFO: the S3FifoRegions below behind the DomainCache
// skeleton (domain_cache.h) — lock-free hit path, sharded eviction
// domains.
//
// S3-FIFO was designed for exactly this: hits touch only a per-object
// atomic frequency counter (no queue reordering ever), so the hot path is
// one probe of the striped atomic index plus one relaxed RMW. All queue
// surgery (admission, small->main promotion, ghost bookkeeping) happens
// on the miss path, where each eviction domain owns a slab region, its
// own small/main FIFOs and its ghost — S3FifoPolicy's GhostQueue
// (src/core/ghost_queue.h), guarded by the domain's mutex.
//
// Storage is one fixed slab of nodes (no per-object allocation),
// partitioned by shard: the FIFOs are intrusive doubly linked lists
// threaded through slab slots (so a removal unlinks in O(1)), and a
// location is a global slab slot,
// which is stable across queue movement — promotion and main-queue
// reinsertion never touch the index at all.
//
// Single-threaded with num_shards == 1 (the default), this class is
// semantically identical to S3FifoPolicy (same queues, same ghost, same
// frequency rules) — the unit tests replay traces through both and
// require identical hit/miss sequences. With more shards each domain is
// an independent S3-FIFO over its hash partition, still deterministic
// single-threaded.

#ifndef QDLP_SRC_CONCURRENT_CONCURRENT_S3FIFO_H_
#define QDLP_SRC_CONCURRENT_CONCURRENT_S3FIFO_H_

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/concurrent/domain_cache.h"

namespace qdlp {

class S3FifoRegions {
 public:
  static constexpr std::string_view kName = "concurrent-s3fifo";
  static constexpr size_t kMinShare = 1;

  // S3FifoPolicy's sizing rules, applied per shard to its capacity share.
  S3FifoRegions(DomainCore& core, double small_fraction, double ghost_factor);

  void Touch(uint32_t loc) {
    std::atomic<uint8_t>& freq = slab_[loc].freq;
    const uint8_t current = freq.load(std::memory_order_relaxed);
    if (current < kMaxFreq) {
      freq.store(current + 1, std::memory_order_relaxed);
    }
  }
  uint32_t Admit(size_t s, ObjectId id);
  void EvictOne(size_t s);
  // O(1): the slot unlinks from its FIFO and returns to the freelist.
  void Unlink(size_t s, uint32_t loc);
  size_t Resident(size_t s) const {
    return shards_[s].small_fifo.count + shards_[s].main_fifo.count;
  }
  void AddOccupancy(size_t s, CacheStats* stats) const {
    stats->probation_size += shards_[s].small_fifo.count;
    stats->main_size += shards_[s].main_fifo.count;
  }
  void CheckShard(size_t s) const;
  uint32_t CellOf(uint32_t loc) const { return loc; }
  size_t MemoryBytes() const { return slab_.capacity() * sizeof(Node); }

 private:
  static constexpr uint8_t kMaxFreq = 3;
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  enum class Where : uint8_t { kSmall, kMain };

  // Slab slot. Only `freq` is touched by concurrent readers (the lock-free
  // hit path); everything else is written solely under the owning shard's
  // mutex.
  struct Node {
    ObjectId id = 0;
    std::atomic<uint8_t> freq{0};
    Where where = Where::kSmall;
    uint32_t prev = kNil;  // intrusive FIFO link toward the head
    uint32_t next = kNil;  // intrusive FIFO link toward the tail / freelist
  };

  // Intrusive FIFO over slab slots.
  struct Fifo {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    size_t count = 0;
  };

  // Per-shard queue state, guarded by the shard's mutex. The shard's slab
  // region is slab_[base, base + capacity); `slab_used` is a local bump
  // offset within it and `free_head` a freelist of recycled region slots.
  struct alignas(64) ShardState {
    Fifo small_fifo;
    Fifo main_fifo;
    uint32_t free_head = kNil;
    size_t slab_used = 0;
    size_t small_capacity = 0;   // small-queue target within the share
  };

  void PushBack(Fifo& fifo, uint32_t slot);
  void Remove(Fifo& fifo, uint32_t slot);
  uint32_t PopFront(Fifo& fifo);
  void FreeSlot(size_t s, uint32_t slot);
  void EvictSmall(size_t s);
  void EvictMain(size_t s);

  DomainCore& core_;
  std::vector<Node> slab_;  // fixed node storage, partitioned by shard
  std::vector<ShardState> shards_;
};

class ConcurrentS3FifoCache : public DomainCache<S3FifoRegions> {
 public:
  ConcurrentS3FifoCache(size_t capacity, double small_fraction = 0.10,
                        double ghost_factor = 0.9, size_t num_stripes = 16,
                        size_t num_shards = 1)
      : DomainCache(capacity, num_stripes, num_shards, QdlpValueOptions{},
                    small_fraction, ghost_factor) {}
};

extern template class DomainCache<S3FifoRegions>;

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_CONCURRENT_S3FIFO_H_
