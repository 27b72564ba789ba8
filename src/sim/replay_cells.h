// The cell runner both multi-configuration replay engines share
// (batch_replay.h over a materialized dense trace, stream_replay.h over a
// TraceSource): it builds one policy per (policy, cache size) cell on the
// lane the lane rule picks, drives every cell through each chunk of the
// request stream, and assembles the cells' SimResults. The engines only
// differ in where a chunk's dense and original ids come from.

#ifndef QDLP_SRC_SIM_REPLAY_CELLS_H_
#define QDLP_SRC_SIM_REPLAY_CELLS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/policies/eviction_policy.h"
#include "src/sim/batch_replay.h"
#include "src/sim/simulator.h"

namespace qdlp {

class ReplayCells {
 public:
  // Builds every cell's policy. `universe` is the stream's exact
  // distinct-id count, 0 when unknown. `original_requests` is the whole
  // original stream, the future Belady is constructed from; nullptr on a
  // stream. Aborts (factory diagnostic) on unknown policy names and on
  // Belady without a future.
  ReplayCells(const std::vector<BatchCellSpec>& cells, uint64_t universe,
              const std::vector<ObjectId>* original_requests);

  // True when some cell reads original ids: Drive then needs `original`.
  bool needs_original_ids() const { return needs_original_ids_; }

  // Feeds one chunk of `len` requests to every cell: dense-id cells read
  // `dense`, the others `original` (which may be null when
  // !needs_original_ids()). Both arrays describe the same requests.
  void Drive(const uint32_t* dense, const ObjectId* original, size_t len);

  // One SimResult per cell, in cell order, after `num_requests` requests
  // have been driven. Checks that every cell saw exactly that many.
  std::vector<SimResult> Results(const std::string& trace_name,
                                 uint64_t num_requests) const;

 private:
  struct Cell {
    std::unique_ptr<EvictionPolicy> policy;
    bool dense_ids = false;  // reads the dense u32 ids; else original ids
  };

  std::vector<Cell> cells_;
  bool needs_original_ids_ = false;
};

}  // namespace qdlp

#endif  // QDLP_SRC_SIM_REPLAY_CELLS_H_
