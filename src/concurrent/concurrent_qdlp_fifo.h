// QD-LP-FIFO — the paper's headline construction (§4, Fig 4) — as a
// thread-safe cache: the QdlpRegions below behind the DomainCache skeleton
// (domain_cache.h), which supplies the lock-free hit path, the sharded
// miss protocol and the optional value store.
//
// Layout mirrors the sequential QdCache over a 2-bit CLOCK, partitioned
// into S hash-selected eviction domains (eviction_domains.h):
//
//   probation  — per shard, a small FIFO (10% of the shard's capacity
//                share) on a slab-backed intrusive list, so a removal
//                unlinks in O(1); a hit sets one per-entry accessed bit
//   main       — per shard, a 2-bit CLOCK ring over the share's remainder
//   ghost      — per shard, metadata-only memory of quick-demoted ids, as
//                large as the shard's main region: the sequential
//                QdCache's GhostQueue (src/core/ghost_queue.h), guarded
//                by the shard's mutex like the rest of the miss path
//
// The main ring is concurrent CLOCK's ring (ClockRegions, 2-bit
// counters). A location is a GLOBAL main slot or a tagged probation
// slot, stable while its object stays in that region; a hit is one
// lock-free probe plus a single relaxed store (the
// accessed bit) or relaxed RMW (the CLOCK counter) — lazy promotion's "at
// most one metadata update, no locking" made literal, and entirely
// shard-oblivious.
//
// Driven from a single thread with num_shards == 1 (the default) this
// class is request-for-request identical to MakePolicy("qd-lp-fifo") —
// the oracle differential tests pin it against the sequential reference
// model. With more shards each domain is an independent QD-LP-FIFO over
// its hash partition, pinned against per-shard sequential references.

#ifndef QDLP_SRC_CONCURRENT_CONCURRENT_QDLP_FIFO_H_
#define QDLP_SRC_CONCURRENT_CONCURRENT_QDLP_FIFO_H_

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/domain_cache.h"
#include "src/util/intrusive_list.h"

namespace qdlp {

class QdlpRegions {
 public:
  static constexpr std::string_view kName = "concurrent-qdlp-fifo";
  // Every shard needs a probation slot and a main slot.
  static constexpr size_t kMinShare = 2;

  // Splits each share as MakePolicy("qd-lp-fifo") splits a capacity:
  // probation = clamp(round(0.10 * share), 1, share - 1), main the rest,
  // ghost as large as main.
  explicit QdlpRegions(DomainCore& core);

  void Touch(uint32_t loc);
  uint32_t Admit(size_t s, ObjectId id);
  // Probation first (quick demotion or lazy promotion), then the main
  // CLOCK hand.
  void EvictOne(size_t s);
  // O(1) in either region: a probation slot unlinks from its FIFO, a
  // main slot empties in place.
  void Unlink(size_t s, uint32_t loc);
  size_t Resident(size_t s) const {
    return shards_[s].fifo.size() + main_.Resident(s);
  }
  void AddOccupancy(size_t s, CacheStats* stats) const;
  void CheckShard(size_t s) const;
  // Main slot i maps to cell i, probation slot p to main_capacity + p —
  // one cell per location, [0, capacity).
  uint32_t CellOf(uint32_t loc) const {
    return (loc & kProbationBit)
               ? static_cast<uint32_t>(main_.capacity()) +
                     (loc & ~kProbationBit)
               : loc;
  }
  size_t MemoryBytes() const;

  // Aggregate region capacities (sums over shards).
  size_t probation_capacity() const { return probation_capacity_; }
  size_t main_capacity() const { return main_.capacity(); }

 private:
  static constexpr uint8_t kMaxCounter = 3;  // 2-bit CLOCK
  // Location tag: high bit = probation, low 31 bits = global slot.
  static constexpr uint32_t kProbationBit = 0x80000000u;

  using ProbationFifo = IntrusiveList<ObjectId>;

  // Per-shard probation state, guarded by the shard's mutex. The shard
  // owns global probation slots [probation_base, probation_base +
  // probation_capacity); slot i of its FIFO (front = oldest) is global
  // slot probation_base + i, stable while the entry stays on probation.
  struct alignas(64) ShardState {
    size_t probation_base = 0;
    size_t probation_capacity = 0;
    ProbationFifo fifo;
  };

  // The tagged location of shard s's FIFO slot.
  uint32_t ProbationLoc(size_t s, ProbationFifo::SlotId slot) const {
    return kProbationBit |
           static_cast<uint32_t>(shards_[s].probation_base + slot);
  }

  // Evicts the shard's oldest probationary entry: accessed -> main (lazy
  // promotion, the value cell moves along), untouched -> ghost (quick
  // demotion).
  void EvictFromProbation(size_t s);

  DomainCore& core_;
  size_t probation_capacity_ = 0;  // sum over shards
  std::vector<ShardState> shards_;
  // One accessed bit per global probation slot: the only probation state
  // the lock-free hit path touches.
  std::vector<std::atomic<uint8_t>> accessed_;
  // Per-shard main CLOCK rings. Main evictions leave no ghost trace (only
  // probation demotions do), and hand laps are internal, as in the
  // sequential QdCache.
  ClockRegions main_;
};

class ConcurrentQdLpFifo : public DomainCache<QdlpRegions> {
 public:
  // Requires capacity >= 2; shard counts that would leave a share below 2
  // are halved (eviction_domains.h).
  explicit ConcurrentQdLpFifo(size_t capacity, size_t num_stripes = 16,
                              size_t num_shards = 1,
                              QdlpValueOptions value_options = {})
      : DomainCache(capacity, num_stripes, num_shards, value_options) {}

  size_t probation_capacity() const {
    return regions().probation_capacity();
  }
  size_t main_capacity() const { return regions().main_capacity(); }
};

extern template class DomainCache<QdlpRegions>;

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_CONCURRENT_QDLP_FIFO_H_
