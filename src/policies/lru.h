// LRU eviction: promote to head on every hit (eager promotion), evict the
// tail. The incumbent the paper argues against; also the building block of
// ARC/SLRU/2Q segments.
//
// Storage is a slab-backed intrusive recency list plus an id index, so a
// hit splices within one contiguous slab (no per-node heap traffic). The
// index backing is a template parameter: LruPolicy probes an
// open-addressing FlatMap, DenseLruPolicy (batched sweep engine, dense
// traces) a direct-indexed slot array.

#ifndef QDLP_SRC_POLICIES_LRU_H_
#define QDLP_SRC_POLICIES_LRU_H_

#include "src/policies/eviction_policy.h"
#include "src/util/dense_index.h"
#include "src/util/intrusive_list.h"

namespace qdlp {

template <typename IndexFactory>
class BasicLruPolicy : public EvictionPolicy {
 public:
  explicit BasicLruPolicy(size_t capacity, IndexFactory factory = {})
      : EvictionPolicy(capacity, "lru"),
        index_(factory.template Make<uint32_t>()) {
    mru_list_.Reserve(capacity);
    // +1: a miss emplaces the newcomer before evicting the victim, so the
    // index transiently holds capacity + 1 entries.
    index_.Reserve(capacity + 1);
  }

  size_t size() const override { return index_.size(); }
  bool Contains(ObjectId id) const override { return index_.Contains(id); }

  uint64_t AccessBatch(const uint32_t* ids, size_t n) override {
    return PrefetchPipelinedBatch(*this, index_, ids, n);
  }

  bool Remove(ObjectId id) override {
    const uint32_t* slot = index_.Find(id);
    if (slot == nullptr) {
      return false;
    }
    mru_list_.Erase(*slot);
    index_.Erase(id);
    NotifyEvict(id);
    return true;
  }
  bool SupportsRemoval() const override { return true; }

  // Recency-list/index consistency.
  void CheckInvariants() const override {
    QDLP_CHECK(index_.size() <= capacity());
    QDLP_CHECK(mru_list_.size() == index_.size());
    mru_list_.ForEach([&](uint32_t slot, ObjectId id) {
      const uint32_t* indexed = index_.Find(id);
      QDLP_CHECK(indexed != nullptr);
      QDLP_CHECK(*indexed == slot);
    });
    mru_list_.CheckInvariants();
    index_.CheckInvariants();
  }

  size_t ApproxMetadataBytes() const override {
    return mru_list_.MemoryBytes() + index_.MemoryBytes();
  }

  // Calls fn(id) for every resident, most recent first.
  template <typename Fn>
  void ForEachResident(Fn&& fn) const {
    mru_list_.ForEach([&](uint32_t, ObjectId id) { fn(id); });
  }

 protected:
  void FillOccupancy(CacheStats& stats) const override {
    // promotions == hits (eager promotion); see the OnAccess hit path.
    stats.promotions = stats.hits;
  }

  bool OnAccess(ObjectId id) override {
    const auto [slot, inserted] = index_.Emplace(id);
    if (!inserted) {
      // Eager promotion: every hit pays a list splice (the cost the paper's
      // lazy-promotion designs avoid), so promotions == hits for LRU. The
      // promotions counter is derived from that identity in FillOccupancy
      // rather than stored per hit — the extra store is measurable (~5%) on
      // this, the tightest hit path in the repo.
      mru_list_.MoveToFront(*slot);
      if (AccessEventSink* sink = event_sink(); sink != nullptr) {
        sink->OnPromote(id, now());
      }
      return true;
    }
    // Evict after the emplace (one probe covers lookup + insert); Erase
    // never relocates live index slots, so `slot` stays valid across it.
    if (index_.size() > capacity()) {
      const uint32_t victim_slot = mru_list_.back();
      const ObjectId victim = mru_list_[victim_slot];
      mru_list_.Erase(victim_slot);
      index_.Erase(victim);
      NotifyEvict(victim);
    }
    *slot = mru_list_.PushFront(id);
    NotifyInsert(id);
    return false;
  }

 private:
  IntrusiveList<ObjectId> mru_list_;  // front = most recent
  typename IndexFactory::template Index<uint32_t> index_;  // id -> list slot
};

using LruPolicy = BasicLruPolicy<FlatIndexFactory>;
using DenseLruPolicy = BasicLruPolicy<DenseIndexFactory>;

extern template class BasicLruPolicy<FlatIndexFactory>;
extern template class BasicLruPolicy<DenseIndexFactory>;

}  // namespace qdlp

#endif  // QDLP_SRC_POLICIES_LRU_H_
