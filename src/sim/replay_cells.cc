#include "src/sim/replay_cells.h"

#include <utility>

#include "src/core/policy_factory.h"
#include "src/util/check.h"

namespace qdlp {

namespace {

// The lane rule, the one place it is written. A remap-invariant policy
// (HasDenseVariant) reads the dense ids: over a direct-indexed slot array
// when the exact universe is known and small enough to afford one per
// cell, over the flat hash index otherwise. Every other policy reads the
// original ids its decisions depend on, and Belady also gets the future
// it is constructed from.
std::unique_ptr<EvictionPolicy> MakeCellPolicy(
    const BatchCellSpec& spec, uint64_t universe,
    const std::vector<ObjectId>* original_requests, bool* dense_ids) {
  *dense_ids = HasDenseVariant(spec.policy);
  if (!*dense_ids) {
    return MakePolicy(spec.policy, spec.cache_size, original_requests);
  }
  if (universe > 0 && universe <= kMaxDenseUniverse) {
    return MakeDensePolicy(spec.policy, spec.cache_size, universe);
  }
  return MakePolicy(spec.policy, spec.cache_size);
}

}  // namespace

ReplayCells::ReplayCells(const std::vector<BatchCellSpec>& cells,
                         uint64_t universe,
                         const std::vector<ObjectId>* original_requests) {
  cells_.reserve(cells.size());
  for (const BatchCellSpec& spec : cells) {
    Cell cell;
    cell.policy =
        MakeCellPolicy(spec, universe, original_requests, &cell.dense_ids);
    if (cell.policy == nullptr) {
      MakePolicyOrDie(spec.policy, spec.cache_size, original_requests);
    }
    needs_original_ids_ |= !cell.dense_ids;
    cells_.push_back(std::move(cell));
  }
}

void ReplayCells::Drive(const uint32_t* dense, const ObjectId* original,
                        size_t len) {
  for (Cell& cell : cells_) {
    // The policies count their own hits (Stats(), read in Results); the
    // replay loop only drives accesses.
    if (cell.dense_ids) {
      cell.policy->AccessBatch(dense, len);
    } else {
      for (size_t i = 0; i < len; ++i) {
        cell.policy->Access(original[i]);
      }
    }
  }
}

std::vector<SimResult> ReplayCells::Results(const std::string& trace_name,
                                            uint64_t num_requests) const {
  std::vector<SimResult> results;
  results.reserve(cells_.size());
  for (const Cell& cell : cells_) {
    SimResult result;
    result.policy = cell.policy->name();
    result.trace = trace_name;
    result.cache_size = cell.policy->capacity();
    result.requests = num_requests;
    result.stats = cell.policy->Stats();
    result.hits = result.stats.hits;
    QDLP_CHECK(result.stats.requests == num_requests);
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace qdlp
