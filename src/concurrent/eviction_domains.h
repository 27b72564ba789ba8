// Sharded eviction domains: the miss-path backbone that lets the
// concurrent caches scale past the single eviction mutex.
//
// DomainCache (domain_cache.h) partitions its Regions' queue storage into
// S independent domains selected by id hash; a domain owns a slab region,
// one mutex, one bank of per-thread-ordinal insert buffers (BP-Wrapper,
// mpsc_ring.h), and an approximate count of buffered misses. Misses to
// different domains admit/evict fully in parallel; the lock-free
// striped_index hit path stays global and untouched.
//
// Shard selection is deliberately the same bit extraction the striped
// index uses for stripe selection — (FlatMapHash(id) >> 32) masked by a
// power of two. With S <= num_stripes (both powers of two), shard s owns
// exactly the stripes {t : t & (S-1) == s}: the stripe sets of different
// shards are disjoint, so per-shard mutexes preserve the index's
// "externally serialized writers per stripe" contract (striped_index.h)
// without any extra synchronization.
//
// Capacity shares use ShardedLru's remainder distribution: base = cap/S
// and the first cap%S shards get one extra slot, so shares always sum to
// the exact configured capacity. The shard count is rounded up to a power
// of two and then halved until every share is at least
// `min_capacity_per_shard` (each cache knows the smallest share it can
// split into regions), so tiny caches degrade to fewer shards instead of
// failing.
//
// Drain protocol (implemented once, in DomainCache; supported here):
//   * A missing thread try-locks its id's home domain; on success it
//     drains that domain's buffers and admits inline.
//   * On failure it buffers the id in the home domain's rings, then bumps
//     `pending`, and returns — Get() never blocks. A full ring drops the
//     admission (counted as a buffer_drop).
//   * A drain claims `pending` (exchange to 0) before popping and skips
//     the rings when it claimed nothing, so every buffered id is popped
//     by the drain that claims its increment, or an earlier one.
//   * Buffered misses are drained only by the next holder of their home
//     domain's lock; no thread drains another domain on its behalf.
//
// With S == 1 (the default everywhere) there is exactly one domain, and a
// single-threaded caller's try_lock always succeeds — behavior is
// bit-identical to the pre-sharded single-mutex caches.

#ifndef QDLP_SRC_CONCURRENT_EVICTION_DOMAINS_H_
#define QDLP_SRC_CONCURRENT_EVICTION_DOMAINS_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "src/concurrent/mpsc_ring.h"
#include "src/trace/trace.h"
#include "src/util/check.h"
#include "src/util/flat_map.h"

namespace qdlp {

// One eviction domain. The mutex guards the owning cache's per-shard queue
// state; `pending` is an approximate relaxed counter of ids sitting in
// `buffers`.
struct EvictionDomain {
  // Mutable so const observers (Stats) can lock for a coherent snapshot.
  alignas(64) mutable std::mutex mu;
  // This shard's capacity share and the first slot of its slab region.
  size_t capacity = 0;
  size_t base = 0;
  // Buffered misses not yet claimed by a drain: a push bumps it after the
  // id is in the rings, a drain claims it all (exchange to 0) before
  // popping, so a drain with nothing claimed skips the rings.
  std::atomic<size_t> pending{0};
  InsertBuffers buffers;

  explicit EvictionDomain(size_t num_rings, size_t ring_capacity)
      : buffers(num_rings, ring_capacity) {}
};

class EvictionDomains {
 public:
  // `num_shards` is rounded up to a power of two (capped at kMaxShards,
  // matching the striped index's stripe cap) and halved until every
  // shard's capacity share is >= min_capacity_per_shard.
  EvictionDomains(size_t capacity, size_t num_shards,
                  size_t min_capacity_per_shard)
      : capacity_(capacity) {
    QDLP_CHECK(num_shards >= 1);
    QDLP_CHECK(min_capacity_per_shard >= 1);
    QDLP_CHECK(capacity >= min_capacity_per_shard);
    size_t shards = 1;
    while (shards < num_shards && shards < kMaxShards) {
      shards *= 2;
    }
    while (shards > 1 && capacity / shards < min_capacity_per_shard) {
      shards /= 2;
    }
    mask_ = shards - 1;
    // One domain keeps the historical 8x256 buffer bank; with many domains
    // each keeps its own (smaller) bank so aggregate buffer space grows
    // sub-linearly with the shard count.
    const size_t rings = shards == 1 ? 8 : 4;
    const size_t ring_capacity = shards == 1 ? 256 : 128;
    shards_.reserve(shards);
    const size_t base_share = capacity / shards;
    size_t remainder = capacity % shards;
    size_t next_base = 0;
    for (size_t i = 0; i < shards; ++i) {
      auto domain = std::make_unique<EvictionDomain>(rings, ring_capacity);
      domain->capacity = base_share + (remainder > 0 ? 1 : 0);
      if (remainder > 0) {
        --remainder;
      }
      domain->base = next_base;
      next_base += domain->capacity;
      shards_.push_back(std::move(domain));
    }
    QDLP_CHECK(next_base == capacity);
  }

  size_t num_shards() const { return shards_.size(); }
  size_t capacity() const { return capacity_; }

  // Same bit extraction as the striped index's stripe choice: shard s owns
  // the disjoint stripe set {t : t & mask_ == s} whenever the index has at
  // least num_shards() stripes.
  size_t ShardOf(ObjectId id) const {
    return (FlatMapHash(id) >> 32) & mask_;
  }

  EvictionDomain& shard(size_t s) { return *shards_[s]; }
  const EvictionDomain& shard(size_t s) const { return *shards_[s]; }

  size_t MemoryBytes() const {
    size_t bytes = 0;
    for (const auto& domain : shards_) {
      bytes += sizeof(EvictionDomain) + domain->buffers.MemoryBytes();
    }
    return bytes;
  }

 private:
  // Matches the striped index's 256-stripe cap so shard selection can
  // always align with a stripe set.
  static constexpr size_t kMaxShards = 256;

  const size_t capacity_;
  size_t mask_ = 0;
  std::vector<std::unique_ptr<EvictionDomain>> shards_;
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_EVICTION_DOMAINS_H_
