// Portable software-prefetch shim for the batched hot loops.
//
// The sweep engine (src/sim/batch_replay) pipelines index probes: while
// request i is being applied to a policy, the probe target of request
// i + kBatchPrefetchDepth is prefetched, so the dependent load at its turn
// hits a line already in flight. Both index backings cooperate: FlatMap
// prefetches the probe-start slot of the hashed key, DenseIndex the
// directly-addressed slot. qdlpd does the same per window of buffered GET
// frames (Cache::PrefetchGets): index slot, value cell, value bytes.

#ifndef QDLP_SRC_UTIL_PREFETCH_H_
#define QDLP_SRC_UTIL_PREFETCH_H_

#include <cstddef>

namespace qdlp {

// Read-intent prefetch into all cache levels; a no-op where the builtin is
// unavailable. Policies mutate most probed slots (visited bits, counters),
// but prefetch-for-read avoids spurious exclusive-state traffic on the
// probe-only majority and still removes the memory latency from the miss.
inline void PrefetchForRead(const void* address) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
#else
  (void)address;
#endif
}

// Lookahead distance of the batched-replay prefetch pipeline, in requests.
// Deep enough to cover DRAM latency at ~1-2 ns/request of policy work,
// shallow enough that the prefetched lines are still resident when their
// request comes up (see docs/PERFORMANCE.md, "Sweep engine" for tuning
// notes).
inline constexpr size_t kBatchPrefetchDepth = 8;

}  // namespace qdlp

#endif  // QDLP_SRC_UTIL_PREFETCH_H_
