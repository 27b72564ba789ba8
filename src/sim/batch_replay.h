// Batched multi-configuration replay: one pass over a dense-id request
// stream drives every (policy x cache size) cell of a sweep at once.
//
// The per-cell replay (simulator.h) re-reads the trace from DRAM once per
// cell; a Fig-2 grid touches each trace policies x fractions times. Here
// the cells advance through the stream together in request batches, so a
// batch is fetched once and stays cache-hot while every cell consumes it:
//
//   for each batch of 1024 requests:
//     translate the batch to original ids once (only if some cell needs them)
//     for each cell: cell.policy consumes the batch
//
// One lane rule, shared with the streaming engine (replay_cells.h), puts
// each cell on one of three lanes:
//  * dense index + dense ids — remap-invariant policy (HasDenseVariant:
//    the FIFO/CLOCK/SIEVE/S3-FIFO family, LRU, ARC, LIRS and qd-<base>
//    over any of them) and 0 < universe <= kMaxDenseUniverse:
//    direct-indexed slot arrays, u32 stream, prefetch pipeline.
//  * flat index + dense ids — remap-invariant policy, any other universe:
//    still reads the halved-width stream, skips the translation, keeps the
//    prefetch pipeline over the hash index.
//  * flat index + original ids — policies whose decisions depend on id
//    values/hash order (random sampling, sketches) and Belady: fed the
//    exact original sequence so results match the per-cell replay bit for
//    bit.
//
// All three lanes produce miss ratios byte-identical to ReplayTrace on the
// original trace (the differential test in tests/batch_replay_test.cc pins
// this across every serial policy).

#ifndef QDLP_SRC_SIM_BATCH_REPLAY_H_
#define QDLP_SRC_SIM_BATCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/trace/dense_trace.h"
#include "src/trace/trace.h"

namespace qdlp {

// One (policy, cache size) configuration to replay.
struct BatchCellSpec {
  std::string policy;
  size_t cache_size = 0;
};

// A DenseIndex spends O(universe) slots per cell; above this many distinct
// objects, remap-invariant policies run over the flat index (still fed
// dense ids). 2^26 slots is 256 MiB/cell at 4-byte values.
constexpr uint64_t kMaxDenseUniverse = uint64_t{1} << 26;

// Replays every cell over `dense` in one interleaved pass. Results are in
// cell order, with SimResult::trace taken from `dense.name`. Cells whose
// policy needs the original request stream at construction (Belady) use
// `original_requests`; passing nullptr aborts for such cells. Aborts on
// unknown policy names with a message listing the known ones.
std::vector<SimResult> BatchReplayTrace(
    const DenseTrace& dense, const std::vector<BatchCellSpec>& cells,
    const std::vector<ObjectId>* original_requests = nullptr);

}  // namespace qdlp

#endif  // QDLP_SRC_SIM_BATCH_REPLAY_H_
