#include "src/sim/stream_replay.h"

#include <memory>
#include <utility>

#include "src/sim/replay_cells.h"
#include "src/sim/stack_distance.h"
#include "src/trace/dense_trace.h"
#include "src/trace/spill_mapper.h"
#include "src/util/check.h"

namespace qdlp {

namespace {

// Budget-selected id mapper: the plain in-memory DenseIdMapper when
// unbudgeted, the spillable out-of-core one otherwise. Both assign dense
// ids in first-appearance order, so the choice never changes results.
class StreamIdMapper {
 public:
  explicit StreamIdMapper(const StreamReplayOptions& options) {
    if (options.mem_budget_bytes > 0) {
      SpillMapperOptions spill_options;
      spill_options.mem_budget_bytes = options.mem_budget_bytes;
      spill_options.spill_dir = options.spill_dir;
      spill_ = std::make_unique<SpillableDenseIdMapper>(spill_options);
    } else {
      inmem_ = std::make_unique<DenseIdMapper>();
    }
  }

  uint32_t MapOrAssign(ObjectId id) {
    return spill_ ? spill_->MapOrAssign(id) : inmem_->MapOrAssign(id);
  }

  uint32_t num_ids() const {
    return spill_ ? spill_->num_ids() : inmem_->num_ids();
  }

  size_t peak_memory_bytes() const {
    return spill_ ? spill_->peak_memory_bytes() : 0;
  }
  size_t spilled_epochs() const { return spill_ ? spill_->spilled_epochs() : 0; }
  bool ok() const { return spill_ == nullptr || spill_->ok(); }
  std::string error() const {
    return spill_ ? spill_->error() : std::string();
  }

 private:
  std::unique_ptr<DenseIdMapper> inmem_;
  std::unique_ptr<SpillableDenseIdMapper> spill_;
};

}  // namespace

StreamReplayResult StreamReplayTrace(TraceSource& source,
                                     const std::string& trace_name,
                                     const std::vector<BatchCellSpec>& cells,
                                     const StreamReplayOptions& options) {
  QDLP_CHECK(options.chunk_size >= 1);
  StreamReplayResult result;

  // The dense-index lane needs the universe before the stream has been
  // seen, so it only engages when the caller supplies it.
  ReplayCells replay(cells, options.dense_universe,
                     /*original_requests=*/nullptr);

  StreamIdMapper mapper(options);
  std::unique_ptr<ShardsProfiler> profiler;
  if (options.shards_sample_rate > 0.0) {
    profiler = std::make_unique<ShardsProfiler>(options.shards_sample_rate);
  }

  std::vector<ObjectId> raw(options.chunk_size);
  std::vector<uint32_t> dense(options.chunk_size);
  uint64_t num_requests = 0;
  while (true) {
    const size_t len = source.NextChunk(raw.data(), options.chunk_size);
    if (len == 0) {
      break;
    }
    for (size_t i = 0; i < len; ++i) {
      dense[i] = mapper.MapOrAssign(raw[i]);
    }
    if (options.dense_universe > 0) {
      QDLP_CHECK_MSG(mapper.num_ids() <= options.dense_universe,
                     "stream has more distinct ids than the dense_universe "
                     "hint promised");
    }
    if (profiler != nullptr) {
      for (size_t i = 0; i < len; ++i) {
        profiler->Record(raw[i]);
      }
    }
    replay.Drive(dense.data(), raw.data(), len);
    num_requests += len;
  }

  result.num_requests = num_requests;
  result.num_objects = mapper.num_ids();
  result.mapper_peak_bytes = mapper.peak_memory_bytes();
  result.mapper_spilled_epochs = mapper.spilled_epochs();
  if (!source.ok()) {
    result.error = source.error();
    return result;
  }
  if (!mapper.ok()) {
    result.error = mapper.error();
    return result;
  }

  result.cells = replay.Results(trace_name, num_requests);
  if (profiler != nullptr) {
    result.lru_mrc.reserve(options.mrc_sizes.size());
    for (const uint64_t size : options.mrc_sizes) {
      result.lru_mrc.emplace_back(size, profiler->MissRatioAt(size));
    }
  }
  result.ok = true;
  return result;
}

StreamCountResult StreamCountObjects(TraceSource& source,
                                     const StreamReplayOptions& options) {
  QDLP_CHECK(options.chunk_size >= 1);
  StreamCountResult result;
  StreamIdMapper mapper(options);
  std::vector<ObjectId> raw(options.chunk_size);
  while (true) {
    const size_t len = source.NextChunk(raw.data(), options.chunk_size);
    if (len == 0) {
      break;
    }
    for (size_t i = 0; i < len; ++i) {
      mapper.MapOrAssign(raw[i]);
    }
    result.num_requests += len;
  }
  result.num_objects = mapper.num_ids();
  result.mapper_peak_bytes = mapper.peak_memory_bytes();
  if (!source.ok()) {
    result.error = source.error();
    return result;
  }
  if (!mapper.ok()) {
    result.error = mapper.error();
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace qdlp
