// Cache — the one cache-facing interface, values included.
//
// Every consumer that doesn't care which engine it drives (the server, the
// replay harness, oracle tests) programs against this interface:
//
//   Get(key, &value)   serving read. Value-storing engines copy the bytes
//                      and NEVER admit on miss (a GET carries nothing to
//                      store); metadata engines model the classic
//                      get-or-admit access and leave *value empty.
//   GetAppend(key, &out)  the same read, appending the bytes at
//                      out->size() — qdlpd's zero-copy GET, which lands
//                      them straight behind the reply header.
//   PrefetchGets(keys, n)  a hint that those keys are about to be read;
//                      qdlpd passes each window of buffered GET frames.
//   Set(key, value, ttl)  serving write: admit if absent, store bytes
//                      (value engines) or just ensure residency (metadata
//                      engines, which ignore bytes and ttl).
//   Delete(key)        user-controlled removal (§2's fourth operation).
//   GetOrAdmit(key)    the replay face, exactly EvictionPolicy::Access /
//                      ConcurrentCache::Get semantics on every engine.
//
// plus the whole CacheObservable surface (name/capacity/Stats/
// ApproxMetadataBytes/CheckInvariants), so benches and reports keep
// consuming one type. The concurrent engines implement it directly
// (ConcurrentCache refines it); sequential policies sit behind the one
// adapter in cache_api.cc. src/core/cache_api.h re-exports it with the
// MakeCache() factory.

#ifndef QDLP_SRC_OBS_CACHE_H_
#define QDLP_SRC_OBS_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/obs/cache_observable.h"
#include "src/trace/trace.h"

namespace qdlp {

class Cache : public CacheObservable {
 public:
  enum class SetStatus {
    kOk,
    kNoSpace,   // value arena cannot hold the bytes even after eviction
    kTooLarge,  // value exceeds the engine's max value length
  };

  // Serving read. True = hit; value engines fill *value (may be empty for
  // an empty stored value), metadata engines always leave it empty.
  // `value` may be null when the caller only wants the outcome.
  virtual bool Get(ObjectId key, std::string* value) = 0;

  // Get in append form: a hit appends the value at out->size() (nothing,
  // for metadata engines); a miss leaves *out as passed. Same outcome and
  // counting as Get. The default goes through Get; the value engine reads
  // straight from its slab into *out.
  virtual bool GetAppend(ObjectId key, std::string* out) {
    std::string value;
    if (!Get(key, &value)) {
      return false;
    }
    out->append(value);
    return true;
  }

  // Hint that keys[0, count) are about to be read: an engine may prefetch
  // what those reads will touch. Never changes an outcome, a counter or
  // any state; the default does nothing.
  virtual void PrefetchGets(const ObjectId* keys, size_t count) {
    (void)keys;
    (void)count;
  }

  // Serving write. `ttl_seconds` is relative (0 = no expiry); metadata
  // engines ignore bytes and ttl and only ensure residency.
  virtual SetStatus Set(ObjectId key, std::string_view value,
                        uint32_t ttl_seconds) = 0;

  // Removal. True if the key was resident. Every concurrent engine
  // implements this; sequential policies without removal support return
  // false (see EvictionPolicy::SupportsRemoval).
  virtual bool Delete(ObjectId key) = 0;

  // The replay face: returns true on hit, admits on miss — identical to
  // EvictionPolicy::Access / ConcurrentCache::Get on every engine. Sweep
  // and replay paths use this so miss ratios are engine-comparable.
  virtual bool GetOrAdmit(ObjectId key) = 0;

  // True when all operations are safe from multiple threads.
  virtual bool thread_safe() const = 0;

  // True when Get/Set move real bytes (the qdlpd engine).
  virtual bool stores_values() const { return false; }
};

}  // namespace qdlp

#endif  // QDLP_SRC_OBS_CACHE_H_
