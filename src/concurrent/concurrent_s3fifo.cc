#include "src/concurrent/concurrent_s3fifo.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace qdlp {

S3FifoRegions::S3FifoRegions(DomainCore& core, double small_fraction,
                             double ghost_factor)
    : core_(core),
      slab_(core.capacity),
      shards_(core.domains.num_shards()) {
  QDLP_CHECK(small_fraction > 0.0 && small_fraction < 1.0);
  // S3FifoPolicy's sizing rules, applied per shard to its capacity share
  // so a one-shard cache reproduces the sequential splits exactly.
  auto scaled = [](size_t share, double fraction) {
    return std::max<size_t>(1, static_cast<size_t>(std::llround(
                                   static_cast<double>(share) * fraction)));
  };
  for (size_t s = 0; s < shards_.size(); ++s) {
    const size_t share = core.domains.shard(s).capacity;
    shards_[s].small_capacity = std::min(scaled(share, small_fraction), share);
    core.ghosts.emplace_back(scaled(share, ghost_factor));
  }
}

void S3FifoRegions::CheckShard(size_t s) const {
  const EvictionDomain& domain = core_.domains.shard(s);
  const ShardState& state = shards_[s];
  QDLP_CHECK(state.slab_used <= domain.capacity);
  // Walk both FIFOs: link structure must be consistent with the counts,
  // tags, region bounds, and the index.
  for (const Fifo* fifo : {&state.small_fifo, &state.main_fifo}) {
    const Where expect =
        fifo == &state.small_fifo ? Where::kSmall : Where::kMain;
    size_t count = 0;
    uint32_t slot = fifo->head;
    uint32_t last = kNil;
    while (slot != kNil) {
      QDLP_CHECK(slot >= domain.base);
      QDLP_CHECK(slot < domain.base + state.slab_used);
      const Node& node = slab_[slot];
      QDLP_CHECK(node.where == expect);
      QDLP_CHECK(node.prev == last);
      QDLP_CHECK(node.freq.load(std::memory_order_relaxed) <= kMaxFreq);
      core_.CheckResident(s, node.id, slot);
      last = slot;
      slot = node.next;
      ++count;
      QDLP_CHECK(count <= Resident(s));  // cycle guard
    }
    QDLP_CHECK(last == fifo->tail);
    QDLP_CHECK(count == fifo->count);
  }
}

void S3FifoRegions::PushBack(Fifo& fifo, uint32_t slot) {
  slab_[slot].prev = fifo.tail;
  slab_[slot].next = kNil;
  if (fifo.tail == kNil) {
    fifo.head = slot;
  } else {
    slab_[fifo.tail].next = slot;
  }
  fifo.tail = slot;
  ++fifo.count;
}

void S3FifoRegions::Remove(Fifo& fifo, uint32_t slot) {
  const Node& node = slab_[slot];
  if (node.prev == kNil) {
    fifo.head = node.next;
  } else {
    slab_[node.prev].next = node.next;
  }
  if (node.next == kNil) {
    fifo.tail = node.prev;
  } else {
    slab_[node.next].prev = node.prev;
  }
  --fifo.count;
}

uint32_t S3FifoRegions::PopFront(Fifo& fifo) {
  QDLP_DCHECK(fifo.head != kNil);
  const uint32_t slot = fifo.head;
  Remove(fifo, slot);
  return slot;
}

void S3FifoRegions::Unlink(size_t s, uint32_t slot) {
  ShardState& state = shards_[s];
  Remove(slab_[slot].where == Where::kSmall ? state.small_fifo
                                             : state.main_fifo,
         slot);
  FreeSlot(s, slot);
}

void S3FifoRegions::FreeSlot(size_t s, uint32_t slot) {
  ShardState& state = shards_[s];
  slab_[slot].next = state.free_head;
  state.free_head = slot;
}

void S3FifoRegions::EvictSmall(size_t s) {
  ShardState& state = shards_[s];
  const uint32_t slot = PopFront(state.small_fifo);
  Node& node = slab_[slot];
  if (node.freq.load(std::memory_order_relaxed) >= 1) {
    // Quick-demotion survivor: promote to main with frequency reset. The
    // location is the slab slot, which does not change — no index write.
    node.where = Where::kMain;
    node.freq.store(0, std::memory_order_relaxed);
    PushBack(state.main_fifo, slot);
    core_.counters.Add(ConcurrentStatsCounters::kPromotions);
    return;
  }
  core_.Evict(node.id, slot);
  core_.ghosts[s].Insert(node.id);
  FreeSlot(s, slot);
  core_.counters.Add(ConcurrentStatsCounters::kDemotions);
}

void S3FifoRegions::EvictMain(size_t s) {
  ShardState& state = shards_[s];
  while (true) {
    const uint32_t slot = PopFront(state.main_fifo);
    Node& node = slab_[slot];
    const uint8_t freq = node.freq.load(std::memory_order_relaxed);
    if (freq > 0) {
      node.freq.store(freq - 1, std::memory_order_relaxed);
      PushBack(state.main_fifo, slot);
      core_.counters.Add(ConcurrentStatsCounters::kPromotions);
      continue;
    }
    core_.Evict(node.id, slot);
    FreeSlot(s, slot);
    return;
  }
}

void S3FifoRegions::EvictOne(size_t s) {
  const ShardState& state = shards_[s];
  if (state.small_fifo.count > 0 &&
      (state.small_fifo.count >= state.small_capacity ||
       state.main_fifo.count == 0)) {
    EvictSmall(s);
  } else {
    EvictMain(s);
  }
}

uint32_t S3FifoRegions::Admit(size_t s, ObjectId id) {
  const EvictionDomain& domain = core_.domains.shard(s);
  ShardState& state = shards_[s];
  // The shard overflows its capacity share, never the global capacity:
  // remainder-distributed shares sum exactly to it (eviction_domains.h).
  while (Resident(s) >= domain.capacity) {
    EvictOne(s);
  }
  uint32_t slot;
  if (state.free_head != kNil) {
    slot = state.free_head;
    state.free_head = slab_[slot].next;
  } else {
    QDLP_DCHECK(state.slab_used < domain.capacity);
    slot = static_cast<uint32_t>(domain.base + state.slab_used++);
  }
  Node& node = slab_[slot];
  node.id = id;
  node.freq.store(0, std::memory_order_relaxed);
  if (core_.ghosts[s].Consume(id)) {
    node.where = Where::kMain;
    PushBack(state.main_fifo, slot);
    core_.counters.Add(ConcurrentStatsCounters::kGhostHits);
  } else {
    node.where = Where::kSmall;
    PushBack(state.small_fifo, slot);
  }
  core_.Place(id, slot, slot);
  return slot;
}

template class DomainCache<S3FifoRegions>;

}  // namespace qdlp
