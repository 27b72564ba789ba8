#include "src/sim/batch_replay.h"

#include <algorithm>

#include "src/sim/replay_cells.h"

namespace qdlp {

namespace {

// Requests per interleaved batch: a u32 batch (4 KiB) stays comfortably
// inside L1 while amortizing the per-cell loop overhead.
constexpr size_t kBatchSize = 1024;

}  // namespace

std::vector<SimResult> BatchReplayTrace(
    const DenseTrace& dense, const std::vector<BatchCellSpec>& cells,
    const std::vector<ObjectId>* original_requests) {
  ReplayCells replay(cells, dense.num_objects(), original_requests);
  const uint32_t* stream = dense.requests.data();
  const size_t num_requests = dense.requests.size();
  // Original-id cells share one translation of the current batch.
  std::vector<ObjectId> original;
  if (replay.needs_original_ids()) {
    original.resize(std::min(kBatchSize, num_requests));
  }
  for (size_t pos = 0; pos < num_requests; pos += kBatchSize) {
    const size_t len = std::min(kBatchSize, num_requests - pos);
    if (replay.needs_original_ids()) {
      for (size_t i = 0; i < len; ++i) {
        original[i] = dense.to_original[stream[pos + i]];
      }
    }
    replay.Drive(stream + pos, original.data(), len);
  }
  return replay.Results(dense.name, num_requests);
}

}  // namespace qdlp
