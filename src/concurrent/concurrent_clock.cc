#include "src/concurrent/concurrent_clock.h"

#include <algorithm>

#include "src/util/check.h"

namespace qdlp {

ClockRegions::ClockRegions(DomainCore& core, int bits)
    : ClockRegions(core, static_cast<uint8_t>((1u << bits) - 1),
                   /*count_laps=*/true, [](size_t share) { return share; }) {
  QDLP_CHECK(bits >= 1 && bits <= 8);
}

ClockRegions::ClockRegions(DomainCore& core, uint8_t max_counter,
                           bool count_laps,
                           size_t (*ring_share)(size_t share))
    : core_(core),
      max_counter_(max_counter),
      count_laps_(count_laps),
      shards_(core.domains.num_shards()) {
  size_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].base = total;
    shards_[s].capacity = ring_share(core.domains.shard(s).capacity);
    QDLP_CHECK(shards_[s].capacity >= 1);
    total += shards_[s].capacity;
  }
  slots_ = std::vector<Slot>(total);
}

void ClockRegions::CheckShard(size_t s) const {
  const ShardState& state = shards_[s];
  QDLP_CHECK(state.used <= state.capacity);
  QDLP_CHECK(state.hand < state.capacity);
  size_t occupied = 0;
  for (size_t i = 0; i < state.capacity; ++i) {
    const Slot& slot = slots_[state.base + i];
    if (i >= state.used) {
      // Never-admitted slots beyond the bump allocator are unoccupied.
      QDLP_CHECK(!slot.occupied);
      continue;
    }
    if (slot.occupied) {
      ++occupied;
      QDLP_CHECK(slot.counter.load(std::memory_order_relaxed) <=
                 max_counter_);
      core_.CheckResident(s, slot.id, static_cast<uint32_t>(state.base + i));
    }
  }
  QDLP_CHECK(occupied == state.count);
}

uint32_t ClockRegions::Insert(size_t s, ObjectId id, uint32_t from_cell) {
  ShardState& state = shards_[s];
  const size_t slot_index = state.used < state.capacity
                                ? state.base + state.used++
                                : EvictOne(s);
  Slot& slot = slots_[slot_index];
  slot.id = id;
  slot.counter.store(0, std::memory_order_relaxed);
  slot.occupied = true;
  ++state.count;
  const uint32_t loc = static_cast<uint32_t>(slot_index);
  core_.Place(id, loc, CellOf(loc), from_cell);
  return loc;
}

size_t ClockRegions::EvictOne(size_t s) {
  ShardState& state = shards_[s];
  while (true) {
    const size_t current = state.base + state.hand;
    Slot& slot = slots_[current];
    state.hand = (state.hand + 1) % state.capacity;
    if (!slot.occupied) {
      return current;
    }
    const uint8_t counter = slot.counter.load(std::memory_order_relaxed);
    if (counter > 0) {
      slot.counter.store(counter - 1, std::memory_order_relaxed);
      if (count_laps_) {
        core_.counters.Add(ConcurrentStatsCounters::kPromotions);
      }
      continue;
    }
    core_.Evict(s, slot.id, CellOf(static_cast<uint32_t>(current)));
    slot.occupied = false;
    --state.count;
    return current;
  }
}

template class DomainCache<ClockRegions>;

}  // namespace qdlp
