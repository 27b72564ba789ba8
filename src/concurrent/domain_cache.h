// DomainCache — the one concurrent-cache skeleton behind the lock-free
// engines (concurrent CLOCK, S3-FIFO and QD-LP-FIFO).
//
// The paper's systems argument (§1–2) is one mechanism: a FIFO-family
// cache serves a hit with one lock-free index probe and one small metadata
// store, and serializes only its misses. This template is that mechanism,
// written once; an engine supplies only its queue logic as a `Regions`
// type (the libCacheSim idiom: one cache skeleton, small per-algorithm
// parts).
//
// The skeleton owns:
//   * the striped atomic index (striped_index.h), id -> location, where a
//     location is a 32-bit value whose meaning only the Regions knows;
//   * the sharded eviction domains (eviction_domains.h) and the drain
//     protocol over them: a missing Get() try-locks its id's home domain,
//     drains that domain's buffered misses and admits inline; on try-lock
//     failure it pushes the id into the domain's one insert ring (or
//     drops it if the ring is full) and returns without blocking. A
//     domain's buffered misses are drained only by the next holder of
//     that domain's lock. Admit/Remove/SetValue
//     take the home lock blocking (counting a lock_wait when a try_lock
//     finds it held; the wait spins briefly, then parks — DomainMutex)
//     and drain it first;
//   * the drain's claim on a domain's `pending` count: a buffering Get
//     bumps it (release) only after its TryPush succeeded, and a drain
//     first claims the whole count with exchange(0, acquire), returning
//     at once when it was 0. Every buffered id is then covered by an
//     increment some later drain consumes, so none is stranded, and a
//     domain nobody buffered into — qdlpd's value path, whose GETs never
//     admit — never has its ring read;
//   * the striped counters, Stats(), the metadata
//     footprint and the shared half of CheckInvariants;
//   * the optional SlabStore value path (GetValue/SetValue, the Cache
//     face's GetAppend and PrefetchGets, arena-pressure eviction, cell
//     stamp/clear/move), one value cell per location.
//
// A Regions type is constructed as Regions(DomainCore&, extra args...) and
// provides:
//   kName, kMinShare     engine name; smallest capacity share its regions
//                        can split (shard counts halve until shares fit)
//   Touch(loc)           the lock-free hit: one relaxed metadata store.
//                        Runs concurrently with everything below.
//   Admit(s, id)         under shard s's lock, id not resident: evict as
//                        needed, then DomainCore::Place the id
//                        (ghost hits included); returns its location
//   EvictOne(s)          one eviction step (may only promote or advance a
//                        hand); repeated calls eventually lower Resident(s)
//   Unlink(s, loc)       drop a Remove()d object's region slot; the index
//                        entry and value cell are already gone
//   Resident(s)          shard s's object count
//   AddOccupancy(s, st)  shard s's probation/main split into CacheStats
//   CheckShard(s)        shard s's region walk (DomainCore::CheckResident
//                        for every resident)
//   CellOf(loc)          the value cell paired with a location
//   MemoryBytes()        region metadata bytes
// Everything but Touch runs under the owning shard's mutex. Evictions go
// through DomainCore::Evict, which keeps the index, the value cell and
// the eviction counters in step.

#ifndef QDLP_SRC_CONCURRENT_DOMAIN_CACHE_H_
#define QDLP_SRC_CONCURRENT_DOMAIN_CACHE_H_

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/eviction_domains.h"
#include "src/concurrent/striped_index.h"
#include "src/core/ghost_queue.h"
#include "src/obs/concurrent_counters.h"
#include "src/store/slab_store.h"
#include "src/util/check.h"

namespace qdlp {

// Opt-in value storage (the qdlpd serving layer, docs/SERVER.md): with
// arena_bytes > 0 the cache owns a SlabStore whose cells are 1:1 with the
// metadata locations, giving GetValue/SetValue byte-serving semantics and
// a byte-moving Cache face. With the default (0) the cache is
// metadata-only.
struct QdlpValueOptions {
  size_t arena_bytes = 0;  // total value arena, split across the domains
  size_t max_value_len = 4u << 20;
  // TTL clock for the Cache face, in absolute seconds; null = wall clock.
  uint64_t (*now_fn)() = nullptr;
};

// The state a Regions type shares with the skeleton.
struct DomainCore {
  static constexpr uint32_t kNoCell = 0xFFFFFFFFu;

  // The index gets max(num_stripes, shard count) stripes so every domain
  // owns a disjoint stripe set (see eviction_domains.h).
  DomainCore(size_t capacity, size_t num_stripes, size_t num_shards,
             size_t min_share)
      : capacity(capacity),
        index(capacity, std::max(num_stripes, num_shards)),
        domains(capacity, num_shards, min_share) {
    QDLP_CHECK(capacity <= 0x7FFFFFFFu);  // locations may carry a 1-bit tag
    QDLP_CHECK(num_stripes >= 1);
    QDLP_CHECK(index.num_stripes() >= domains.num_shards());
  }

  // Indexes a newly placed id at `loc`. Its value cell is stamped with the
  // id (no bytes yet, so a GetValue before the first SetValue reads a
  // clean kNoValue), or, for a metadata move, takes over `from_cell`'s
  // value; the destination cell was cleared when its occupant left.
  void Place(ObjectId id, uint32_t loc, uint32_t cell,
             uint32_t from_cell = kNoCell) {
    index.Insert(id, loc);
    if (!store) {
      return;
    }
    if (from_cell != kNoCell) {
      store->MoveCell(from_cell, cell);
    } else {
      store->FreeChunk(store->Commit(cell, id, SlabStore::kNullChunk, 0));
    }
  }

  // An object leaves cache space (eviction or removal), under its shard's
  // mutex. The index entry goes first, so readers stop finding the id
  // before its slot can be recycled; a reader that already fetched the
  // location at worst touches the next occupant's metadata once — benign.
  void Evict(ObjectId id, uint32_t cell) {
    index.Erase(id);
    if (store) {
      store->FreeChunk(store->ClearCell(cell));
    }
    counters.Add(ConcurrentStatsCounters::kEvictions);
  }

  // For CheckShard: a resident of shard s at `loc` hashes to s and is
  // indexed at exactly that location.
  void CheckResident(size_t s, ObjectId id, uint32_t loc) const {
    QDLP_CHECK(domains.ShardOf(id) == s);
    uint32_t indexed;
    QDLP_CHECK(index.Find(id, &indexed));
    QDLP_CHECK(indexed == loc);
  }

  const size_t capacity;
  StripedAtomicIndex index;  // id -> Regions location; size() = residents
  EvictionDomains domains;
  ConcurrentStatsCounters counters;
  // Per-shard ghosts of the engines that keep one (empty otherwise): the
  // sequential engines' GhostQueue, guarded by its domain's mutex.
  std::vector<GhostQueue> ghosts;
  // Value store: one cell per location, one arena per eviction domain so
  // eviction frees value bytes under the mutex it already holds. Null when
  // metadata-only.
  std::unique_ptr<SlabStore> store;
};

template <typename Regions>
class DomainCache : public ConcurrentCache {
 public:
  // SetValue's outcome: the Cache face's Set statuses.
  using SetResult = SetStatus;

  bool Get(ObjectId id) override;
  bool Admit(ObjectId id) override;
  bool Remove(ObjectId id) override;

  // The Cache face. With a value store, Get serves bytes through GetValue
  // (never admitting) and Set stores them through SetValue with a TTL from
  // the configured clock; metadata-only, ConcurrentCache's semantics.
  bool Get(ObjectId key, std::string* value) override;
  SetStatus Set(ObjectId key, std::string_view value,
                uint32_t ttl_seconds) override;
  bool stores_values() const override { return core_.store != nullptr; }
  // With a value store, the read GetValue makes, appending straight from
  // the slab into *out.
  bool GetAppend(ObjectId key, std::string* out) override;
  // Three passes over the keys, each only atomic loads and prefetches —
  // nothing written, counted or validated: the index probe-start slots,
  // then (with a value store) the value cells the index names, then the
  // first lines of those cells' chunks. The reads that follow still run
  // the full validated path.
  void PrefetchGets(const ObjectId* keys, size_t count) override;

  // ---- Value path (requires QdlpValueOptions::arena_bytes > 0). ----
  //
  // GetValue is the serving read: a lock-free index probe, the same lazy-
  // promotion touch as Get() on success, and a seqlock value copy. It
  // NEVER admits — a GET carries no bytes to store, so a miss stays a miss
  // (counted) until the client SETs. An expired value counts as a miss and
  // lazily removes the object. *value is replaced: a hit leaves exactly
  // the stored bytes, anything else leaves it empty.
  bool GetValue(ObjectId id, uint64_t now_s, std::string* value);
  // SetValue is the serving write: under the home-domain mutex (blocking)
  // it allocates a chunk — evicting from this shard until the arena can
  // satisfy the request — admits the id if not resident (ghost
  // resurrection rules apply, counted as an insert but never as a miss:
  // the GET that preceded it already counted), and commits the bytes.
  // `expiry_s` is an absolute second (0 = never expires).
  SetResult SetValue(ObjectId id, std::string_view value, uint64_t expiry_s);

  size_t capacity() const override { return core_.capacity; }
  std::string_view name() const override { return Regions::kName; }

  // Resident object count (approximate under concurrency).
  size_t size() const { return core_.index.size(); }

  // Flow counters from striped thread-exclusive cells; occupancy (and the
  // Regions' probation/main split, and ghost sizes) summed under the shard
  // mutexes. Safe concurrently with Get().
  CacheStats Stats() const override;

  size_t num_shards() const { return core_.domains.num_shards(); }
  size_t ShardOf(ObjectId id) const { return core_.domains.ShardOf(id); }
  // The shard's capacity share.
  size_t shard_capacity(size_t s) const {
    return core_.domains.shard(s).capacity;
  }

  // Under all shard mutexes (buffered misses drained first): every
  // Regions walk, resident accounting against the index, ghost/resident
  // disjointness, and value-cell ownership.
  void CheckInvariants() override;

  size_t ApproxMetadataBytes() const override;

 protected:
  template <typename... RegionArgs>
  DomainCache(size_t capacity, size_t num_stripes, size_t num_shards,
              const QdlpValueOptions& value_options, RegionArgs&&... args)
      : core_(capacity, num_stripes, num_shards, Regions::kMinShare),
        regions_(core_, std::forward<RegionArgs>(args)...),
        now_fn_(value_options.now_fn != nullptr ? value_options.now_fn
                                                : &WallClockSeconds) {
    if (value_options.arena_bytes > 0) {
      const size_t shards = core_.domains.num_shards();
      core_.store = std::make_unique<SlabStore>(
          capacity, shards, value_options.arena_bytes / shards,
          value_options.max_value_len);
    }
  }

  const Regions& regions() const { return regions_; }

 private:
  using Counters = ConcurrentStatsCounters;

  static uint64_t WallClockSeconds() {
    return static_cast<uint64_t>(time(nullptr));
  }

  // The blocking paths' home-domain lock: a try_lock first, and a counted
  // lock_wait before blocking when another thread holds it.
  std::unique_lock<DomainMutex> LockHome(size_t s) {
    DomainMutex& mu = core_.domains.shard(s).mu;
    if (!mu.try_lock()) {
      core_.counters.Add(Counters::kLockWaits);
      mu.lock();
    }
    return std::unique_lock<DomainMutex>(mu, std::adopt_lock);
  }
  // Admits `id` into shard s unless already resident; returns true on a
  // (raced) hit. Under the shard's mutex.
  bool InsertLocked(size_t s, ObjectId id);
  // Admits the non-resident `id` into shard s and counts the insert;
  // returns its location. Under the shard's mutex.
  uint32_t AdmitLocked(size_t s, ObjectId id) {
    core_.counters.Add(Counters::kInserts);
    return regions_.Admit(s, id);
  }
  // Counts the acquisition just made and drains the shard's ring: the
  // prologue of every operation holding a shard lock for itself.
  void SettleLocked(size_t s);
  // The lock-free hit path shared by Get and Admit: one index probe plus
  // the Regions' single relaxed metadata store, shard-oblivious.
  bool TryHit(ObjectId id) {
    uint32_t loc;
    if (!core_.index.Find(id, &loc)) {
      return false;
    }
    regions_.Touch(loc);
    core_.counters.Add(Counters::kHits);
    return true;
  }
  // GetValue's read in append form: a hit appends at out->size(), every
  // other outcome leaves *out as passed (SlabStore::Read's contract).
  bool AppendValue(ObjectId id, uint64_t now_s, std::string* out);
  // A counted Get/Admit miss under the freshly taken home-domain lock.
  bool MissLocked(size_t s, ObjectId id);
  // Drains shard s's insert ring.
  void DrainShardLocked(size_t s);

  DomainCore core_;
  Regions regions_;
  uint64_t (*const now_fn_)();
};

template <typename Regions>
bool DomainCache<Regions>::Get(ObjectId id) {
  if (TryHit(id)) {
    return true;
  }
  // Miss path. Uncontended (and always, single-threaded): take the home
  // domain's lock, drain its buffered misses, admit. Hit/miss is counted
  // where the outcome is known: the locked re-probe can find the object
  // already admitted by another thread (or an earlier buffered copy of
  // this miss), and that Get is a hit to its caller.
  const size_t s = core_.domains.ShardOf(id);
  EvictionDomain& domain = core_.domains.shard(s);
  if (domain.mu.try_lock()) {
    const std::lock_guard<DomainMutex> lock(domain.mu, std::adopt_lock);
    return MissLocked(s, id);
  }
  // Contended: buffer the id for the current holder to admit.
  core_.counters.Add(Counters::kLockFailures);
  core_.counters.Add(Counters::kMisses);
  if (domain.ring.TryPush(id)) {
    // After the push, so the drain that claims this increment sees the id
    // (DrainShardLocked).
    domain.pending.fetch_add(1, std::memory_order_release);
    return false;
  }
  // Ring full while the lock is held elsewhere — on an oversubscribed
  // machine that usually means the holder was preempted mid-drain.
  // Blocking here would convoy every missing thread behind it, so
  // admission is best-effort instead: drop this one (the object is
  // buffered or admitted on its next miss) and keep Get() non-blocking.
  core_.counters.Add(Counters::kBufferDrops);
  return false;
}

template <typename Regions>
bool DomainCache<Regions>::Admit(ObjectId id) {
  // The hit path is Get()'s, lock-free. A miss takes the home-domain lock
  // blocking (like Remove) rather than best-effort buffering, so the id is
  // resident on return; uncontended this is identical to Get().
  if (TryHit(id)) {
    return true;
  }
  const size_t s = core_.domains.ShardOf(id);
  const std::unique_lock<DomainMutex> lock = LockHome(s);
  return MissLocked(s, id);
}

template <typename Regions>
bool DomainCache<Regions>::Remove(ObjectId id) {
  // Blocking lock, unlike the miss path's try_lock: removal is rare
  // (invalidation, TTL reap, a DELETE request) and must not be best-effort.
  // Safe to block — lock holders never wait on other locks. Settling the
  // ring first keeps a just-buffered admission of this very id from
  // resurrecting it right after we return.
  const size_t s = core_.domains.ShardOf(id);
  const std::unique_lock<DomainMutex> lock = LockHome(s);
  SettleLocked(s);
  uint32_t loc;
  if (!core_.index.Find(id, &loc)) {
    return false;
  }
  // Counts as an eviction (the object left cache space); no ghost trace —
  // it was invalidated, it did not age out.
  core_.Evict(id, regions_.CellOf(loc));
  regions_.Unlink(s, loc);
  return true;
}

template <typename Regions>
bool DomainCache<Regions>::Get(ObjectId key, std::string* value) {
  if (!core_.store) {
    return ConcurrentCache::Get(key, value);
  }
  std::string scratch;
  return GetValue(key, now_fn_(), value != nullptr ? value : &scratch);
}

template <typename Regions>
Cache::SetStatus DomainCache<Regions>::Set(ObjectId key,
                                           std::string_view value,
                                           uint32_t ttl_seconds) {
  if (!core_.store) {
    return ConcurrentCache::Set(key, value, ttl_seconds);
  }
  return SetValue(key, value, ttl_seconds == 0 ? 0 : now_fn_() + ttl_seconds);
}

template <typename Regions>
bool DomainCache<Regions>::GetAppend(ObjectId key, std::string* out) {
  if (!core_.store) {
    return ConcurrentCache::GetAppend(key, out);
  }
  return AppendValue(key, now_fn_(), out);
}

template <typename Regions>
void DomainCache<Regions>::PrefetchGets(const ObjectId* keys, size_t count) {
  // Windows of kWindow keys: long enough to overlap their memory latency,
  // short enough that the first window's lines are still resident when
  // its reads come up.
  constexpr size_t kWindow = 32;
  uint32_t cells[kWindow];
  for (size_t begin = 0; begin < count; begin += kWindow) {
    const ObjectId* window = keys + begin;
    const size_t n = std::min(kWindow, count - begin);
    for (size_t i = 0; i < n; ++i) {
      core_.index.PrefetchHome(window[i]);
    }
    if (!core_.store) {
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      uint32_t loc;
      cells[i] = core_.index.PeekHint(window[i], &loc) ? regions_.CellOf(loc)
                                                       : DomainCore::kNoCell;
      core_.store->PrefetchCell(cells[i]);
    }
    for (size_t i = 0; i < n; ++i) {
      core_.store->PrefetchValue(cells[i]);
    }
  }
}

template <typename Regions>
bool DomainCache<Regions>::GetValue(ObjectId id, uint64_t now_s,
                                    std::string* value) {
  value->clear();
  return AppendValue(id, now_s, value);
}

template <typename Regions>
bool DomainCache<Regions>::AppendValue(ObjectId id, uint64_t now_s,
                                       std::string* out) {
  QDLP_CHECK(core_.store != nullptr);
  // Bounded re-probe loop: kStale means the object moved (promotion) or
  // was replaced between the index probe and the cell read.
  // Every resident id's cell is ownership-stamped at admission, so
  // staleness is transient; the cap is belt and braces.
  for (int attempt = 0; attempt < 8; ++attempt) {
    uint32_t loc;
    if (!core_.index.Find(id, &loc)) {
      break;
    }
    switch (core_.store->Read(regions_.CellOf(loc), id, now_s, out)) {
      case SlabStore::ReadResult::kHit:
        regions_.Touch(loc);
        core_.counters.Add(Counters::kHits);
        return true;
      case SlabStore::ReadResult::kNoValue:
        // Metadata-resident but no bytes committed yet (admitted via the
        // metadata-only Get() path): a serving miss.
        core_.counters.Add(Counters::kMisses);
        return false;
      case SlabStore::ReadResult::kExpired:
        // Lazy TTL: first touch past expiry reaps the object.
        Remove(id);
        core_.counters.Add(Counters::kMisses);
        return false;
      case SlabStore::ReadResult::kStale:
        continue;
    }
  }
  // A GET carries no bytes to store, so a miss never admits and never
  // touches the ghost — the client's SET does the admission.
  core_.counters.Add(Counters::kMisses);
  return false;
}

template <typename Regions>
typename DomainCache<Regions>::SetResult DomainCache<Regions>::SetValue(
    ObjectId id, std::string_view value, uint64_t expiry_s) {
  QDLP_CHECK(core_.store != nullptr);
  SlabStore& store = *core_.store;
  if (value.size() > store.max_value_len()) {
    return SetResult::kTooLarge;
  }
  const size_t s = core_.domains.ShardOf(id);
  const std::unique_lock<DomainMutex> lock = LockHome(s);
  SettleLocked(s);
  // Allocate before touching residency: arena-pressure evictions free
  // other objects' chunks, never this uncommitted one — but they may evict
  // this very id's metadata, so residency is (re)established after.
  SlabStore::ChunkRef chunk;
  while ((chunk = store.Allocate(s, value.size())) == SlabStore::kNullChunk) {
    const size_t before = regions_.Resident(s);
    if (before == 0) {
      return SetResult::kNoSpace;  // arena can't hold it even when empty
    }
    // An eviction step can promote or sweep without evicting; repeat until
    // an object actually leaves. Terminates: every step makes progress.
    while (regions_.Resident(s) == before) {
      regions_.EvictOne(s);
    }
  }
  // Under the home lock, with the ring settled, the index is exact for
  // this id: one probe decides, and admission reports where it placed it.
  uint32_t loc;
  if (!core_.index.Find(id, &loc)) {
    // Admission follows the normal miss rules (ghost resurrection included)
    // and counts as an insert — never as a serving miss: the GET that
    // preceded this SET already counted it.
    loc = AdmitLocked(s, id);
  }
  store.WriteChunk(chunk, value.data(), value.size());
  store.FreeChunk(store.Commit(regions_.CellOf(loc), id, chunk, expiry_s));
  return SetResult::kOk;
}

template <typename Regions>
bool DomainCache<Regions>::InsertLocked(size_t s, ObjectId id) {
  if (core_.index.Contains(id)) {
    return true;  // another thread (or an earlier buffered copy) admitted it
  }
  AdmitLocked(s, id);
  return false;
}

template <typename Regions>
void DomainCache<Regions>::SettleLocked(size_t s) {
  core_.counters.Add(Counters::kLockAcquisitions);
  DrainShardLocked(s);
}

template <typename Regions>
bool DomainCache<Regions>::MissLocked(size_t s, ObjectId id) {
  SettleLocked(s);
  const bool hit = InsertLocked(s, id);
  core_.counters.Add(hit ? Counters::kHits : Counters::kMisses);
  return hit;
}

template <typename Regions>
void DomainCache<Regions>::DrainShardLocked(size_t s) {
  EvictionDomain& domain = core_.domains.shard(s);
  // Claim before popping: an id pushed after this exchange brings its own
  // increment for a later drain, and one whose increment this claims was
  // published before it (release/acquire), so it is popped below.
  if (domain.pending.exchange(0, std::memory_order_acquire) == 0) {
    return;
  }
  size_t drained = 0;
  uint64_t id;
  while (domain.ring.TryPop(&id)) {
    InsertLocked(s, id);
    ++drained;
  }
  core_.counters.AddDrainBatch(drained);
}

template <typename Regions>
CacheStats DomainCache<Regions>::Stats() const {
  CacheStats stats = core_.counters.Snapshot();
  for (size_t s = 0; s < core_.domains.num_shards(); ++s) {
    std::lock_guard<DomainMutex> lock(core_.domains.shard(s).mu);
    stats.size += regions_.Resident(s);
    regions_.AddOccupancy(s, &stats);
    if (!core_.ghosts.empty()) {
      stats.ghost_size += core_.ghosts[s].size();
    }
  }
  return stats;
}

template <typename Regions>
void DomainCache<Regions>::CheckInvariants() {
  // Settle buffered misses, then hold every shard lock for the global
  // checks. Blocking is safe: the miss path only ever try-locks.
  const size_t shards = core_.domains.num_shards();
  for (size_t s = 0; s < shards; ++s) {
    EvictionDomain& domain = core_.domains.shard(s);
    domain.mu.lock();
    DrainShardLocked(s);
    // Quiescent, every buffered id's increment has landed, so the drain
    // left nothing behind: a stranded admission would sit here forever.
    QDLP_CHECK(domain.ring.empty());
  }
  size_t total = 0;
  for (size_t s = 0; s < shards; ++s) {
    QDLP_CHECK(regions_.Resident(s) <= core_.domains.shard(s).capacity);
    regions_.CheckShard(s);
    total += regions_.Resident(s);
  }
  // Every region walk proved its residents indexed where they sit; equal
  // counts make the index and the regions the same set.
  QDLP_CHECK(core_.index.size() == total);
  core_.index.CheckInvariants();
  // Ghost entries are evicted history; none may still be resident.
  for (const GhostQueue& ghost : core_.ghosts) {
    ghost.ForEachLive(
        [&](ObjectId id) { QDLP_CHECK(!core_.index.Contains(id)); });
    ghost.CheckInvariants();
  }
  if (core_.store) {
    // Every resident id owns its paired value cell (stamped at admission,
    // moved with every metadata move), so a read is never stale here.
    std::string scratch;
    core_.index.ForEach([&](ObjectId id, uint32_t loc) {
      QDLP_CHECK(core_.store->Read(regions_.CellOf(loc), id, /*now_s=*/0,
                                   &scratch) !=
                 SlabStore::ReadResult::kStale);
    });
    core_.store->CheckInvariants();
  }
  for (size_t s = shards; s-- > 0;) {
    core_.domains.shard(s).mu.unlock();
  }
}

template <typename Regions>
size_t DomainCache<Regions>::ApproxMetadataBytes() const {
  size_t bytes = core_.index.MemoryBytes() + core_.domains.MemoryBytes() +
                 core_.counters.MemoryBytes() + regions_.MemoryBytes();
  // The ghosts grow under their domains' mutexes; read each under its own.
  for (size_t s = 0; s < core_.ghosts.size(); ++s) {
    std::lock_guard<DomainMutex> lock(core_.domains.shard(s).mu);
    bytes += core_.ghosts[s].ApproxMetadataBytes();
  }
  if (core_.store) {
    bytes += core_.store->ApproxMetadataBytes();
  }
  return bytes;
}

}  // namespace qdlp

#endif  // QDLP_SRC_CONCURRENT_DOMAIN_CACHE_H_
