#include "src/concurrent/concurrent_qdlp_fifo.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/util/check.h"

namespace qdlp {

namespace {

// MakePolicy("qd-lp-fifo")'s split: probation 10% (rounded, at least 1,
// at most capacity - 1), main the remainder. Applied per shard to its
// capacity share so a one-shard cache reproduces the sequential split.
size_t ProbationCapacity(size_t capacity) {
  size_t probation = std::max<size_t>(
      1,
      static_cast<size_t>(std::llround(static_cast<double>(capacity) * 0.10)));
  return std::min(probation, capacity - 1);
}

}  // namespace

QdlpRegions::QdlpRegions(DomainCore& core)
    : core_(core),
      shards_(core.domains.num_shards()),
      main_(core, kMaxCounter, /*count_laps=*/false,
            [](size_t share) { return share - ProbationCapacity(share); }) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const size_t share = core.domains.shard(s).capacity;
    ShardState& state = shards_[s];
    state.probation_base = probation_capacity_;
    state.probation_capacity = ProbationCapacity(share);
    probation_capacity_ += state.probation_capacity;
    // Ghost as large as the shard's main region (factor 1.0).
    core.ghosts.push_back(
        std::make_unique<ShardedGhost>(share - state.probation_capacity));
  }
  probation_ = std::vector<ProbationSlot>(probation_capacity_);
}

void QdlpRegions::CheckShard(size_t s) const {
  const ShardState& state = shards_[s];
  QDLP_CHECK(state.probation_count <= state.probation_capacity);
  QDLP_CHECK(state.probation_head < state.probation_capacity);
  // Probation ring entries are indexed at their tagged global position.
  // An object holds space in exactly one region; the tags prove
  // probation/main disjointness (one index entry per id).
  for (size_t i = 0; i < state.probation_count; ++i) {
    const size_t pos = state.probation_base +
                       (state.probation_head + i) % state.probation_capacity;
    core_.CheckResident(s, probation_[pos].id,
                        kProbationBit | static_cast<uint32_t>(pos));
  }
  main_.CheckShard(s);
}

size_t QdlpRegions::MemoryBytes() const {
  return probation_.capacity() * sizeof(ProbationSlot) + main_.MemoryBytes();
}

void QdlpRegions::AddOccupancy(size_t s, CacheStats* stats) const {
  stats->probation_size += shards_[s].probation_count;
  stats->main_size += main_.Resident(s);
}

void QdlpRegions::Touch(uint32_t loc) {
  if (!(loc & kProbationBit)) {
    main_.Touch(loc);
    return;
  }
  // Racing with a quick demotion that recycles this probation slot, the
  // bit can land on the slot's next occupant — one spurious promotion
  // candidate, never a correctness issue.
  probation_[loc & ~kProbationBit].accessed.store(1,
                                                  std::memory_order_relaxed);
}

void QdlpRegions::Admit(size_t s, ObjectId id) {
  if (core_.ghosts[s]->Consume(id)) {
    // Quick-demoted once already: admit straight into the main cache.
    core_.counters.Add(ConcurrentStatsCounters::kGhostHits);
    main_.Insert(s, id, DomainCore::kNoCell);
    return;
  }
  // Push into probation, quick-demoting / lazily promoting the oldest
  // entries as needed to make room.
  ShardState& state = shards_[s];
  while (state.probation_count >= state.probation_capacity) {
    EvictFromProbation(s);
  }
  const size_t pos = state.probation_base +
                     (state.probation_head + state.probation_count) %
                         state.probation_capacity;
  ProbationSlot& slot = probation_[pos];
  slot.id = id;
  slot.accessed.store(0, std::memory_order_relaxed);
  ++state.probation_count;
  const uint32_t loc = kProbationBit | static_cast<uint32_t>(pos);
  core_.Place(id, loc, CellOf(loc));
}

void QdlpRegions::EvictOne(size_t s) {
  if (shards_[s].probation_count > 0) {
    EvictFromProbation(s);
  } else {
    main_.EvictOne(s);
  }
}

void QdlpRegions::EvictFromProbation(size_t s) {
  ShardState& state = shards_[s];
  QDLP_DCHECK(state.probation_count > 0);
  const size_t pos = state.probation_base + state.probation_head;
  ProbationSlot& slot = probation_[pos];
  state.probation_head =
      (state.probation_head + 1) % state.probation_capacity;
  --state.probation_count;
  const ObjectId victim = slot.id;
  const uint32_t cell = CellOf(kProbationBit | static_cast<uint32_t>(pos));
  if (slot.accessed.load(std::memory_order_relaxed) != 0) {
    // Lazy promotion: re-accessed while on probation -> main cache. Erase
    // before the slot can be recycled (a racing reader at worst sets the
    // next occupant's accessed bit).
    core_.index.Erase(victim);
    core_.counters.Add(ConcurrentStatsCounters::kPromotions);
    main_.Insert(s, victim, cell);
  } else {
    // Quick demotion: one lap through the small FIFO was its only chance.
    core_.Evict(s, victim, cell);
    core_.ghosts[s]->Insert(victim);
    core_.counters.Add(ConcurrentStatsCounters::kDemotions);
  }
}

void QdlpRegions::Unlink(size_t s, uint32_t loc) {
  if (!(loc & kProbationBit)) {
    main_.Unlink(s, loc);
    return;
  }
  // Probation is a dense circular FIFO, so removal compacts from the head
  // side: every entry between the head and the hole shifts one position
  // toward the tail (preserving FIFO order), then the head advances over
  // the vacated slot. Each move is a slot copy + index update + cell move.
  ShardState& state = shards_[s];
  const size_t local = (loc & ~kProbationBit) - state.probation_base;
  const size_t dist =
      (local + state.probation_capacity - state.probation_head) %
      state.probation_capacity;
  for (size_t i = dist; i > 0; --i) {
    const uint32_t to = static_cast<uint32_t>(
        state.probation_base +
        (state.probation_head + i) % state.probation_capacity);
    const uint32_t from = static_cast<uint32_t>(
        state.probation_base +
        (state.probation_head + i - 1) % state.probation_capacity);
    probation_[to].id = probation_[from].id;
    // A concurrent hit racing this move can drop its accessed bit or land
    // it on the vacated slot — a lost reference bit, benign.
    probation_[to].accessed.store(
        probation_[from].accessed.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    core_.index.Update(probation_[to].id, kProbationBit | to);
    if (core_.store) {
      core_.store->MoveCell(CellOf(kProbationBit | from),
                            CellOf(kProbationBit | to));
    }
  }
  state.probation_head =
      (state.probation_head + 1) % state.probation_capacity;
  --state.probation_count;
}

template class DomainCache<QdlpRegions>;

}  // namespace qdlp
