// Thread-safe caches for the throughput/scalability experiments.
//
// The paper's motivation (§1, §2): each LRU hit updates six pointers under a
// lock, while FIFO/CLOCK hits touch at most one small counter and need no
// exclusive lock, so FIFO-family caches are faster and scale with cores.
// These implementations make that concrete:
//
//  * ShardedLruCache      — N shards, each one sequential LruPolicy behind
//                           its own mutex (the common mitigation), in
//                           sharded_lru.h
//  * GlobalLockLruCache   — the same LRU with one shard: one mutex around
//                           it (the naive memcached-style design the paper
//                           argues against)
//  * ConcurrentClockCache, ConcurrentS3FifoCache, ConcurrentQdLpFifo —
//                           CLOCK, S3-FIFO and QD-LP-FIFO as Regions types
//                           behind one DomainCache skeleton
//                           (domain_cache.h): a lock-free hit path, misses
//                           batched behind sharded eviction domains
//
// Get() is get-or-admit: returns true on hit, and on miss admits the id
// (evicting if needed), mirroring EvictionPolicy::Access.
//
// ConcurrentCache refines Cache (src/obs/cache.h), so every engine is
// served, replayed and observed through the one interface with no adapter:
// this class gives the Cache face its metadata semantics in terms of
// Get/Admit/Remove, and DomainCache overrides Get/Set to move bytes when
// it owns a value store. Telemetry in the lock-free caches is kept in
// striped, cache-line-exclusive relaxed atomics
// (src/obs/concurrent_counters.h); the LRU caches' LruPolicy shards count
// under the shard locks they already hold. There is deliberately NO AccessEventSink on this
// hierarchy: a virtual call per event would poison the lock-free hit path
// the paper's throughput argument rests on — Stats() snapshots are the
// concurrent observability surface.

#ifndef QDLP_SRC_CONCURRENT_CONCURRENT_CACHE_H_
#define QDLP_SRC_CONCURRENT_CONCURRENT_CACHE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/obs/cache.h"
#include "src/trace/trace.h"

namespace qdlp {

class ConcurrentCache : public Cache {
 public:
  // Returns true on hit; admits on miss. Thread-safe.
  virtual bool Get(ObjectId id) = 0;

  // Get with guaranteed admission: identical semantics and counting to
  // Get(), except that a miss blocks on the home-domain lock (exactly like
  // Remove()) instead of deferring to the best-effort insert buffers — so
  // the id is resident when the call returns (until a later eviction or
  // removal). Serving writes (Set) route here: a SET must not silently
  // admit nothing under contention. Uncontended, this is
  // indistinguishable from Get().
  virtual bool Admit(ObjectId id) = 0;

  // User-controlled removal (§2, Fig 1). Returns true if the object was
  // resident and has been removed; thread-safe, and required of every
  // implementation — there is no "declines removal" escape hatch. The
  // lock-free caches unlink under the id's home-domain mutex (the same
  // serialization their miss path uses), so removal composes with the
  // lock-free hit path exactly like an eviction does. Removals count as
  // evictions in Stats().
  virtual bool Remove(ObjectId id) = 0;

  // The Cache face with metadata semantics: bytes and ttl have nowhere to
  // live, so Get is get-or-admit and Set only ensures residency.
  bool Get(ObjectId key, std::string* value) override {
    if (value != nullptr) {
      value->clear();
    }
    return Get(key);
  }
  SetStatus Set(ObjectId key, std::string_view value,
                uint32_t ttl_seconds) override {
    (void)value;
    (void)ttl_seconds;
    Admit(key);
    return SetStatus::kOk;
  }
  bool Delete(ObjectId key) override { return Remove(key); }
  bool GetOrAdmit(ObjectId key) override { return Get(key); }
  bool thread_safe() const override { return true; }

  // CacheObservable reminders (see src/obs/cache_observable.h):
  //  * Stats() must be safe to call concurrently with Get() — sum striped
  //    atomics, take only cold locks for occupancy fields.
  //  * CheckInvariants() takes the cache's locks, but it is O(size) and
  //    intended for tests — call it at quiescent points (e.g. after
  //    joining worker threads): the lock-free caches also check that their
  //    drain left no buffered miss behind, which a Get still in flight
  //    could contradict.
};

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_CONCURRENT_CACHE_H_
