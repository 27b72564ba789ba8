// SIEVE (Zhang et al., NSDI'24) — the single-queue lazy-promotion design
// descended from this paper: FIFO order, one visited bit per object, and a
// "hand" that sweeps from tail to head *without moving survivors*. Unlike
// CLOCK, retained objects keep their position while the hand walks past
// them, and new objects are inserted at the head, behind the hand — which
// makes the survivors act as a sieve filtering new arrivals. Lazy promotion
// and quick demotion in one mechanism.
//
// Storage is a slab-backed intrusive queue plus an id index; the hand is a
// stable slot id into the slab, so a hit costs one index probe plus one bit
// write and eviction walks contiguous memory. The index backing is a
// template parameter: SievePolicy probes an open-addressing FlatMap,
// DenseSievePolicy (batched sweep engine, dense traces) a direct-indexed
// slot array.

#ifndef QDLP_SRC_CORE_SIEVE_H_
#define QDLP_SRC_CORE_SIEVE_H_

#include "src/policies/eviction_policy.h"
#include "src/util/dense_index.h"
#include "src/util/intrusive_list.h"

namespace qdlp {

template <typename IndexFactory>
class BasicSievePolicy : public EvictionPolicy {
 public:
  explicit BasicSievePolicy(size_t capacity, IndexFactory factory = {})
      : EvictionPolicy(capacity, "sieve"),
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

  // Queue/index consistency and the hand pointing inside the queue.
  void CheckInvariants() const override {
    QDLP_CHECK(queue_.size() == index_.size());
    QDLP_CHECK(index_.size() <= capacity());
    bool hand_in_queue = hand_ == IntrusiveList<Node>::kNullSlot;
    queue_.ForEach([&](uint32_t slot, const Node& node) {
      const uint32_t* indexed = index_.Find(node.id);
      QDLP_CHECK(indexed != nullptr);
      QDLP_CHECK(*indexed == slot);
      if (slot == hand_) {
        hand_in_queue = true;
      }
    });
    QDLP_CHECK(hand_in_queue);
    queue_.CheckInvariants();
    index_.CheckInvariants();
  }

  size_t ApproxMetadataBytes() const override {
    return queue_.MemoryBytes() + index_.MemoryBytes();
  }

 protected:
  bool OnAccess(ObjectId id) override {
    const auto [slot, inserted] = index_.Emplace(id);
    if (!inserted) {
      queue_[*slot].visited = true;  // the only metadata write on a hit
      return true;
    }
    // Evict after the emplace (one probe covers lookup + insert); Erase
    // never relocates live index slots, so `slot` stays valid across it.
    if (index_.size() > capacity()) {
      EvictOne();
    }
    *slot = queue_.PushFront(Node{id, false});
    NotifyInsert(id);
    return false;
  }

 private:
  struct Node {
    ObjectId id;
    bool visited;
  };

  void EvictOne() {
    QDLP_DCHECK(!queue_.empty());
    // The hand resumes where the previous eviction stopped; when it falls
    // off the head (or was never set), it restarts at the tail.
    if (hand_ == IntrusiveList<Node>::kNullSlot) {
      hand_ = queue_.back();
    }
    while (queue_[hand_].visited) {
      // Lazy promotion, SIEVE-style: the survivor keeps its position and
      // only its visited bit is cleared as the hand walks past.
      queue_[hand_].visited = false;
      NotifyPromote(queue_[hand_].id);
      if (hand_ == queue_.front()) {
        hand_ = queue_.back();  // wrap: head -> tail
      } else {
        hand_ = queue_.Prev(hand_);  // move toward the head
      }
    }
    const ObjectId victim = queue_[hand_].id;
    const uint32_t next = hand_ == queue_.front()
                              ? IntrusiveList<Node>::kNullSlot
                              : queue_.Prev(hand_);
    queue_.Erase(hand_);
    hand_ = next;
    index_.Erase(victim);
    NotifyEvict(victim);
  }

  IntrusiveList<Node> queue_;  // front = head (newest), back = tail (oldest)
  uint32_t hand_ = IntrusiveList<Node>::kNullSlot;
  typename IndexFactory::template Index<uint32_t> index_;  // id -> queue slot
};

using SievePolicy = BasicSievePolicy<FlatIndexFactory>;
using DenseSievePolicy = BasicSievePolicy<DenseIndexFactory>;

extern template class BasicSievePolicy<FlatIndexFactory>;
extern template class BasicSievePolicy<DenseIndexFactory>;

}  // namespace qdlp

#endif  // QDLP_SRC_CORE_SIEVE_H_
