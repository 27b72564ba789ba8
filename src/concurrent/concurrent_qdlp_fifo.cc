#include "src/concurrent/concurrent_qdlp_fifo.h"

#include <algorithm>
#include <cmath>

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
    state.fifo.Reserve(state.probation_capacity);
    probation_capacity_ += state.probation_capacity;
    // Ghost as large as the shard's main region (factor 1.0).
    core.ghosts.emplace_back(share - state.probation_capacity);
  }
  accessed_ = std::vector<std::atomic<uint8_t>>(probation_capacity_);
}

void QdlpRegions::CheckShard(size_t s) const {
  const ShardState& state = shards_[s];
  QDLP_CHECK(state.fifo.size() <= state.probation_capacity);
  state.fifo.CheckInvariants();
  // Probation entries are indexed at their tagged global slot, inside the
  // shard's range. An object holds space in exactly one region; the tags
  // prove probation/main disjointness (one index entry per id).
  state.fifo.ForEach([&](ProbationFifo::SlotId slot, ObjectId id) {
    QDLP_CHECK(slot < state.probation_capacity);
    core_.CheckResident(s, id, ProbationLoc(s, slot));
  });
  main_.CheckShard(s);
}

size_t QdlpRegions::MemoryBytes() const {
  size_t bytes = accessed_.size() + main_.MemoryBytes();
  for (const ShardState& state : shards_) {
    bytes += state.fifo.MemoryBytes();
  }
  return bytes;
}

void QdlpRegions::AddOccupancy(size_t s, CacheStats* stats) const {
  stats->probation_size += shards_[s].fifo.size();
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
  accessed_[loc & ~kProbationBit].store(1, std::memory_order_relaxed);
}

uint32_t QdlpRegions::Admit(size_t s, ObjectId id) {
  if (core_.ghosts[s].Consume(id)) {
    // Quick-demoted once already: admit straight into the main cache.
    core_.counters.Add(ConcurrentStatsCounters::kGhostHits);
    return main_.Insert(s, id, DomainCore::kNoCell);
  }
  // Push into probation, quick-demoting / lazily promoting the oldest
  // entries as needed to make room.
  ShardState& state = shards_[s];
  while (state.fifo.size() >= state.probation_capacity) {
    EvictFromProbation(s);
  }
  const uint32_t loc = ProbationLoc(s, state.fifo.PushBack(id));
  accessed_[loc & ~kProbationBit].store(0, std::memory_order_relaxed);
  core_.Place(id, loc, CellOf(loc));
  return loc;
}

void QdlpRegions::EvictOne(size_t s) {
  if (!shards_[s].fifo.empty()) {
    EvictFromProbation(s);
  } else {
    main_.EvictOne(s);
  }
}

void QdlpRegions::EvictFromProbation(size_t s) {
  ProbationFifo& fifo = shards_[s].fifo;
  QDLP_DCHECK(!fifo.empty());
  const ProbationFifo::SlotId slot = fifo.front();
  const ObjectId victim = fifo[slot];
  const uint32_t loc = ProbationLoc(s, slot);
  const bool accessed =
      accessed_[loc & ~kProbationBit].load(std::memory_order_relaxed) != 0;
  fifo.Erase(slot);
  const uint32_t cell = CellOf(loc);
  if (accessed) {
    // Lazy promotion: re-accessed while on probation -> main cache. Erase
    // before the slot can be recycled (a racing reader at worst sets the
    // next occupant's accessed bit).
    core_.index.Erase(victim);
    core_.counters.Add(ConcurrentStatsCounters::kPromotions);
    main_.Insert(s, victim, cell);
  } else {
    // Quick demotion: one lap through the small FIFO was its only chance.
    core_.Evict(s, victim, cell);
    core_.ghosts[s].Insert(victim);
    core_.counters.Add(ConcurrentStatsCounters::kDemotions);
  }
}

void QdlpRegions::Unlink(size_t s, uint32_t loc) {
  if (!(loc & kProbationBit)) {
    main_.Unlink(s, loc);
    return;
  }
  // The survivors keep their FIFO order and their slots: nothing moves, so
  // no index update and no value-cell move.
  ShardState& state = shards_[s];
  state.fifo.Erase(static_cast<ProbationFifo::SlotId>(
      (loc & ~kProbationBit) - state.probation_base));
}

template class DomainCache<QdlpRegions>;

}  // namespace qdlp
