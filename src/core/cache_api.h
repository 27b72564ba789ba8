// The unified cache-facing API: the Cache interface (src/obs/cache.h,
// re-exported here) plus its one factory.
//
// MakeCache() routes one config struct to a concurrent engine — each of
// the five is itself a Cache, and "concurrent-qdlp-fifo" with a nonzero
// `value_arena_bytes` owns a SlabStore and serves bytes (what qdlpd runs)
// — or to the single sequential adapter over any MakePolicy name. No
// per-engine construction code at call sites.

#ifndef QDLP_SRC_CORE_CACHE_API_H_
#define QDLP_SRC_CORE_CACHE_API_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/cache.h"
#include "src/trace/trace.h"

namespace qdlp {

struct CacheConfig {
  std::string policy = "qd-lp-fifo";  // MakePolicy name or a concurrent name
  size_t capacity = 0;                // objects; required

  // Concurrent engines only.
  size_t num_stripes = 16;  // striped-index width
  size_t num_shards = 1;    // eviction domains

  // Value serving (requires policy == "concurrent-qdlp-fifo"): nonzero
  // gives the engine a SlabStore of this many bytes.
  size_t value_arena_bytes = 0;
  size_t max_value_len = 4u << 20;

  // TTL clock, in absolute seconds. Null = wall clock. Tests inject a fake
  // to step time deterministically.
  uint64_t (*now_fn)() = nullptr;

  // Future-request stream for "belady" only.
  const std::vector<ObjectId>* trace = nullptr;
};

// The one factory. Returns nullptr for unknown policy names, for
// value_arena_bytes on a non-qdlp engine, or when MakePolicy itself
// declines (e.g. "belady" without a trace).
std::unique_ptr<Cache> MakeCache(const CacheConfig& config);

// Replays ids through the unified replay face; returns the hit count.
uint64_t ReplayTrace(Cache& cache, const std::vector<ObjectId>& ids);

}  // namespace qdlp

#endif  // QDLP_SRC_CORE_CACHE_API_H_
