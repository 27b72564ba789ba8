// CacheStats — the one observational vocabulary every cache in the repo
// speaks, serial or concurrent.
//
// Production caches live or die by cheap, always-on telemetry (Caffeine's
// stats surface popularized this for W-TinyLFU), and the paper's own QD
// mechanism (§4) is invisible at runtime without it: whether a workload is
// being served by the probationary FIFO, resurrected through the ghost, or
// churning the main region is exactly the probation→main promotion rate and
// ghost-hit rate this struct exposes. Counters are populated by plain
// uint64_t increments in the sequential policies (EvictionPolicy) and by
// cache-line-padded relaxed atomics in the concurrent caches
// (concurrent_counters.h); Stats() on either hierarchy returns a coherent
// snapshot as this plain value type.

#ifndef QDLP_SRC_OBS_CACHE_STATS_H_
#define QDLP_SRC_OBS_CACHE_STATS_H_

#include <cstdint>

namespace qdlp {

struct CacheStats {
  // Flow counters, monotone over a cache's lifetime.
  uint64_t requests = 0;    // accesses observed (== hits + misses)
  uint64_t hits = 0;        // requests served from cache space
  uint64_t misses = 0;      // requests that were not (ghost hits included)
  uint64_t inserts = 0;     // admissions into cache space
  uint64_t evictions = 0;   // departures from cache space (user removals too)
  uint64_t promotions = 0;  // lazy promotions / reinsertions (probation→main,
                            //   CLOCK second chances, LRU move-to-front)
  uint64_t demotions = 0;   // quick demotions (probation→ghost)
  uint64_t ghost_hits = 0;  // misses whose id was remembered by a ghost

  // Miss-path contention counters (concurrent caches only; always 0 for
  // the sequential policies). "Where does it serialize" is answerable from
  // these without a profiler — see docs/OBSERVABILITY.md for the quiescent
  // single-threaded identities they obey.
  uint64_t lock_acquisitions = 0;  // eviction-domain mutexes acquired
  uint64_t lock_failures = 0;      // failed try_locks (miss was buffered)
  uint64_t lock_waits = 0;         // blocking acquisitions (Admit, Remove,
                                   //   SetValue) that found the lock held
  uint64_t buffer_drops = 0;       // ring-full drops: admissions abandoned
  // Drain batch size histogram: non-empty buffer drains bucketed by how
  // many buffered misses one lock acquisition amortized.
  uint64_t drain_batch_le8 = 0;   // 1..8 drained
  uint64_t drain_batch_le64 = 0;  // 9..64 drained
  uint64_t drain_batch_gt64 = 0;  // 65+ drained

  // Occupancy snapshot, taken at Stats() time. The per-queue fields are 0
  // for policies without the corresponding region.
  uint64_t size = 0;            // objects currently holding cache space
  uint64_t probation_size = 0;  // small/probationary queue occupancy
  uint64_t main_size = 0;       // main region occupancy
  uint64_t ghost_size = 0;      // ghost (metadata-only) entries

  // Flow counters over the window since `before` was snapped (occupancy
  // fields stay as this snapshot's — occupancy is a level, not a flow).
  CacheStats DeltaSince(const CacheStats& before) const;

  double hit_ratio() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(requests);
  }
  double miss_ratio() const { return requests == 0 ? 0.0 : 1.0 - hit_ratio(); }
  // Fraction of misses that were ghost resurrections — how often quick
  // demotion threw away an object the workload still wanted.
  double ghost_hit_ratio() const {
    return misses == 0 ? 0.0
                       : static_cast<double>(ghost_hits) /
                             static_cast<double>(misses);
  }
  // Of the objects that left probation, the fraction that had proven reuse
  // and were promoted into the main region (the paper's §4 flow).
  double promotion_rate() const {
    const uint64_t departures = promotions + demotions;
    return departures == 0 ? 0.0
                           : static_cast<double>(promotions) /
                                 static_cast<double>(departures);
  }
};

// One CacheStats counter as the outside world names it.
struct CacheStatsField {
  const char* key;
  uint64_t CacheStats::*member;
  bool flow;  // monotone counter; false for an occupancy level
};

// Every CacheStats counter, the one table the STATS wire body, the bench
// JSON "stats" block (writer and google-benchmark counter bridge) and
// DeltaSince walk. The order is the wire order: the original fields in
// declaration order, then later additions in the order they were added.
// A new field is appended, so a decoder built against an older table keeps
// reading its prefix. Removing a field shifts every field after it; that
// is a one-time wire change, safe only because every decoder of the body
// is in this repo and reads it through this table (DecodeStatsBody in
// src/server/protocol.h, which the client and perfbench use).
inline constexpr CacheStatsField kCacheStatsFields[] = {
    {"requests", &CacheStats::requests, true},
    {"hits", &CacheStats::hits, true},
    {"misses", &CacheStats::misses, true},
    {"inserts", &CacheStats::inserts, true},
    {"evictions", &CacheStats::evictions, true},
    {"promotions", &CacheStats::promotions, true},
    {"demotions", &CacheStats::demotions, true},
    {"ghost_hits", &CacheStats::ghost_hits, true},
    {"lock_acquisitions", &CacheStats::lock_acquisitions, true},
    {"lock_failures", &CacheStats::lock_failures, true},
    {"buffer_drops", &CacheStats::buffer_drops, true},
    {"drain_batch_le8", &CacheStats::drain_batch_le8, true},
    {"drain_batch_le64", &CacheStats::drain_batch_le64, true},
    {"drain_batch_gt64", &CacheStats::drain_batch_gt64, true},
    {"size", &CacheStats::size, false},
    {"probation_size", &CacheStats::probation_size, false},
    {"main_size", &CacheStats::main_size, false},
    {"ghost_size", &CacheStats::ghost_size, false},
    // Later additions.
    {"lock_waits", &CacheStats::lock_waits, true},
};

inline CacheStats CacheStats::DeltaSince(const CacheStats& before) const {
  CacheStats delta = *this;
  for (const CacheStatsField& field : kCacheStatsFields) {
    if (field.flow) {
      delta.*field.member -= before.*field.member;
    }
  }
  return delta;
}

}  // namespace qdlp

#endif  // QDLP_SRC_OBS_CACHE_STATS_H_
