// CLOCK with a truly lock-free hit path and sharded eviction domains: the
// ClockRegions below behind the DomainCache skeleton (domain_cache.h).
//
// A hit is one hash, a short probe of the striped atomic index, and a
// single relaxed atomic RMW on the object's reference counter — no mutex,
// no shared_mutex, no reader registration. This is the "at most one
// metadata update, no locking" property of Lazy Promotion (§3, §4) made
// literal. The CLOCK ring is partitioned into S hash-selected regions,
// each with its own hand and bump allocator under its domain's mutex; a
// location is a global ring slot, and so is its value cell.
//
// Driven from a single thread with num_shards == 1 (the default) the
// behavior is exactly the sequential CLOCK spec (the try_lock always
// succeeds, so admissions are never deferred); the oracle differential
// tests pin this against RefClock. With more shards each domain is an
// independent CLOCK over its hash partition — still deterministic
// single-threaded, pinned against per-shard sequential references.
//
// The same ring is QD-LP-FIFO's main cache (concurrent_qdlp_fifo.h).

#ifndef QDLP_SRC_CONCURRENT_CONCURRENT_CLOCK_H_
#define QDLP_SRC_CONCURRENT_CONCURRENT_CLOCK_H_

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/concurrent/domain_cache.h"

namespace qdlp {

class ClockRegions {
 public:
  static constexpr std::string_view kName = "concurrent-clock";
  static constexpr size_t kMinShare = 1;

  // One ring region per domain share, counters of `bits` bits.
  ClockRegions(DomainCore& core, int bits);
  // Regions of ring_share(domain share) slots each. `count_laps` counts
  // every counter decrement of the hand as a promotion (the sequential
  // CLOCK's reinsertion lap).
  ClockRegions(DomainCore& core, uint8_t max_counter, bool count_laps,
               size_t (*ring_share)(size_t share));

  void Touch(uint32_t loc) {
    std::atomic<uint8_t>& counter = slots_[loc].counter;
    const uint8_t current = counter.load(std::memory_order_relaxed);
    if (current < max_counter_) {
      // Racy saturating bump: a lost increment under contention only costs
      // a reference bit, never correctness.
      counter.store(current + 1, std::memory_order_relaxed);
    }
  }
  uint32_t Admit(size_t s, ObjectId id) {
    return Insert(s, id, DomainCore::kNoCell);
  }
  // Places `id` in shard s's region, evicting if it is full; `from_cell`
  // as for DomainCore::Place. Returns the slot it placed `id` in.
  uint32_t Insert(size_t s, ObjectId id, uint32_t from_cell);
  // Advances the shard's hand to the next victim and evicts it; returns
  // the freed (or never-reoccupied) global slot.
  size_t EvictOne(size_t s);
  void Unlink(size_t s, uint32_t loc) {
    slots_[loc].occupied = false;
    --shards_[s].count;
  }
  size_t Resident(size_t s) const { return shards_[s].count; }
  void AddOccupancy(size_t, CacheStats*) const {}
  void CheckShard(size_t s) const;
  uint32_t CellOf(uint32_t loc) const { return loc; }
  size_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }
  size_t capacity() const { return slots_.size(); }

 private:
  // Ring slot. Only `counter` is touched by concurrent readers (the
  // lock-free hit path); id/occupied are written solely under the owning
  // shard's mutex, and readers never look at them.
  struct Slot {
    ObjectId id = 0;
    std::atomic<uint8_t> counter{0};
    bool occupied = false;
  };

  // Per-shard ring region, guarded by the shard's mutex: slots_[base,
  // base + capacity); `hand` and `used` are offsets within it. Padded so
  // neighboring shards' hand churn never shares a line.
  struct alignas(64) ShardState {
    size_t base = 0;
    size_t capacity = 0;
    size_t used = 0;  // bump allocator over the region
    size_t hand = 0;
    size_t count = 0;  // occupied slots
  };

  DomainCore& core_;
  const uint8_t max_counter_;
  const bool count_laps_;
  std::vector<ShardState> shards_;
  std::vector<Slot> slots_;  // the clock ring, partitioned by shard
};

class ConcurrentClockCache : public DomainCache<ClockRegions> {
 public:
  ConcurrentClockCache(size_t capacity, int bits = 1, size_t num_stripes = 16,
                       size_t num_shards = 1)
      : DomainCache(capacity, num_stripes, num_shards, QdlpValueOptions{},
                    bits) {}
};

extern template class DomainCache<ClockRegions>;

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_CONCURRENT_CLOCK_H_
