// FIFO eviction: evict in insertion order, no promotion of any kind.
//
// The paper's base algorithm. Zero metadata updates on a hit, which is what
// gives FIFO its throughput/scalability/flash-friendliness advantages (§2);
// the miss-ratio gap to LRU is what LP and QD close.
//
// Storage is a slab-backed intrusive queue plus an id index with no
// per-object allocation. The index backing is a template parameter: the
// general-purpose FifoPolicy probes an open-addressing FlatMap, while
// DenseFifoPolicy (used by the batched sweep engine on dense-remapped
// traces) replaces the probe with a direct-indexed slot array. User removal
// (for TTL) unlinks the queue record in O(1), so eviction never sees stale
// entries.

#ifndef QDLP_SRC_POLICIES_FIFO_H_
#define QDLP_SRC_POLICIES_FIFO_H_

#include "src/policies/eviction_policy.h"
#include "src/util/dense_index.h"
#include "src/util/intrusive_list.h"

namespace qdlp {

template <typename IndexFactory>
class BasicFifoPolicy : public EvictionPolicy {
 public:
  explicit BasicFifoPolicy(size_t capacity, IndexFactory factory = {})
      : EvictionPolicy(capacity, "fifo"),
        index_(factory.template Make<uint32_t>()) {
    queue_.Reserve(capacity);
    // A miss emplaces the newcomer before evicting the victim, so the index
    // transiently holds capacity + 1 entries. Reserve(capacity) sizes for
    // <= 50% load, which leaves room for the extra one.
    index_.Reserve(capacity);
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
    queue_.Erase(*slot);
    index_.Erase(id);
    NotifyEvict(id);
    return true;
  }
  bool SupportsRemoval() const override { return true; }

  // Queue/index consistency: the queue and index hold exactly the same ids.
  void CheckInvariants() const override {
    QDLP_CHECK(index_.size() <= capacity());
    QDLP_CHECK(queue_.size() == index_.size());
    queue_.ForEach([&](uint32_t slot, ObjectId id) {
      const uint32_t* indexed = index_.Find(id);
      QDLP_CHECK(indexed != nullptr);
      QDLP_CHECK(*indexed == slot);
    });
    queue_.CheckInvariants();
    index_.CheckInvariants();
  }

  // Slab + table bytes currently held (bench bytes/object accounting).
  size_t ApproxMetadataBytes() const override {
    return queue_.MemoryBytes() + index_.MemoryBytes();
  }

 protected:
  bool OnAccess(ObjectId id) override {
    const auto [slot, inserted] = index_.Emplace(id);
    if (!inserted) {
      return true;
    }
    // Evict after the emplace (one probe covers lookup + insert); Erase
    // never relocates live index slots, so `slot` stays valid across it.
    if (index_.size() > capacity()) {
      EvictOldest();
    }
    *slot = queue_.PushBack(id);
    NotifyInsert(id);
    return false;
  }

 private:
  void EvictOldest() {
    QDLP_CHECK(!queue_.empty());
    const uint32_t slot = queue_.front();
    const ObjectId victim = queue_[slot];
    queue_.Erase(slot);
    index_.Erase(victim);
    NotifyEvict(victim);
  }

  IntrusiveList<ObjectId> queue_;  // front = oldest
  typename IndexFactory::template Index<uint32_t> index_;  // id -> queue slot
};

using FifoPolicy = BasicFifoPolicy<FlatIndexFactory>;
using DenseFifoPolicy = BasicFifoPolicy<DenseIndexFactory>;

extern template class BasicFifoPolicy<FlatIndexFactory>;
extern template class BasicFifoPolicy<DenseIndexFactory>;

}  // namespace qdlp

#endif  // QDLP_SRC_POLICIES_FIFO_H_
