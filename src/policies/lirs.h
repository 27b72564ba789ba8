// LIRS — Low Inter-reference Recency Set (Jiang & Zhang, SIGMETRICS'02).
//
// Partitions resident objects into LIR (low inter-reference recency, ~99% of
// capacity) and HIR blocks (~1%). Stack S orders blocks by recency and also
// holds non-resident HIR metadata; queue Q holds the resident HIR blocks,
// which are the eviction victims. A HIR block that is re-referenced while
// still in S (i.e., its reuse distance beats the coldest LIR block) is
// upgraded to LIR, demoting the LIR block at the stack bottom.
//
// The paper (§4, footnote 4) notes that two open-source LIRS implementations
// used by prior work were buggy; the invariants here (stack bottom is always
// LIR, non-resident metadata bounded) are enforced with checks and covered by
// dedicated tests.
//
// Storage is two slab-backed intrusive lists (S and Q) plus one id index
// whose 8-byte entry holds the block's S slot and a word that is either its
// Q slot or its state tag. Non-resident records are bounded through a FIFO
// of ids in the order they became non-resident; trimming pops it and skips
// stale records (ids re-referenced or pruned since), it never unlinks them.
// The index backing is a template parameter: LirsPolicy probes an
// open-addressing FlatMap, DenseLirsPolicy (batched sweep engine, dense
// traces) a direct-indexed slot array. Decisions depend only on S, Q and
// FIFO order, never on id values, so both variants agree.

#ifndef QDLP_SRC_POLICIES_LIRS_H_
#define QDLP_SRC_POLICIES_LIRS_H_

#include <algorithm>
#include <cmath>
#include <deque>

#include "src/policies/eviction_policy.h"
#include "src/util/dense_index.h"
#include "src/util/intrusive_list.h"

namespace qdlp {

template <typename IndexFactory>
class BasicLirsPolicy : public EvictionPolicy {
 public:
  // hir_fraction of capacity is reserved for resident HIR blocks (Q);
  // classic LIRS uses 1%, with a floor of 1 block (0 at capacity 1, where
  // the lone block is LIR). `max_nonresident_factor` bounds stack S's
  // non-resident metadata to factor*capacity entries.
  explicit BasicLirsPolicy(size_t capacity, double hir_fraction = 0.01,
                           double max_nonresident_factor = 3.0,
                           IndexFactory factory = {})
      : EvictionPolicy(capacity, "lirs"),
        index_(factory.template Make<Entry>()) {
    QDLP_CHECK(hir_fraction > 0.0 && hir_fraction < 1.0);
    QDLP_CHECK(max_nonresident_factor >= 1.0);
    // Q slots must stay below the state tags.
    QDLP_CHECK(capacity < kLirTag);
    hir_capacity_ = std::min(
        std::max<size_t>(
            1, static_cast<size_t>(std::lround(static_cast<double>(capacity) *
                                               hir_fraction))),
        capacity - 1);
    lir_capacity_ = capacity - hir_capacity_;
    max_nonresident_ = static_cast<size_t>(
        std::lround(static_cast<double>(capacity) * max_nonresident_factor));
    index_.Reserve(capacity * 2);
  }

  size_t size() const override { return resident_count_; }
  bool Contains(ObjectId id) const override {
    const Entry* entry = index_.Find(id);
    return entry != nullptr && entry->state() != State::kHirNonResident;
  }

  uint64_t AccessBatch(const uint32_t* ids, size_t n) override {
    return PrefetchPipelinedBatch(*this, index_, ids, n);
  }

  size_t lir_count() const { return lir_count_; }
  size_t queue_size() const { return queue_.size(); }
  size_t stack_size() const { return stack_.size(); }
  // True when the bottom of stack S is a LIR block (core LIRS invariant).
  bool StackBottomIsLir() const {
    if (stack_.empty()) {
      return true;
    }
    const Entry* entry = index_.Find(stack_[stack_.back()]);
    QDLP_CHECK(entry != nullptr);
    return entry->state() == State::kLir;
  }

  // LIRS invariants (SIGMETRICS'02 §3.3, plus the §4-footnote-4 pitfalls):
  // stack bottom is LIR, LIR blocks never exceed the LIR allocation, Q holds
  // exactly the resident HIR blocks, and the non-resident metadata stays
  // within its configured bound.
  void CheckInvariants() const override {
    QDLP_CHECK(resident_count_ <= capacity());
    QDLP_CHECK(lir_count_ <= lir_capacity_);
    QDLP_CHECK(nonresident_count_ <= max_nonresident_);
    QDLP_CHECK(StackBottomIsLir());
    // Recount states from the index and cross-check the cached tallies.
    size_t lir = 0;
    size_t hir_resident = 0;
    size_t hir_nonresident = 0;
    size_t flagged_in_stack = 0;
    index_.ForEach([&](ObjectId, const Entry& entry) {
      switch (entry.state()) {
        case State::kLir:
          ++lir;
          // LIR blocks are always on the stack and never in Q.
          QDLP_CHECK(entry.in_stack());
          QDLP_CHECK(!entry.in_queue());
          break;
        case State::kHirResident:
          ++hir_resident;
          QDLP_CHECK(entry.in_queue());
          break;
        case State::kHirNonResident:
          ++hir_nonresident;
          // Non-resident metadata only exists while it can still matter:
          // the id must sit in stack S (otherwise it should have been
          // dropped).
          QDLP_CHECK(entry.in_stack());
          QDLP_CHECK(!entry.in_queue());
          break;
      }
      flagged_in_stack += entry.in_stack() ? 1 : 0;
    });
    QDLP_CHECK(lir == lir_count_);
    QDLP_CHECK(lir + hir_resident == resident_count_);
    QDLP_CHECK(hir_nonresident == nonresident_count_);
    // Q is exactly the resident HIR set.
    QDLP_CHECK(queue_.size() == hir_resident);
    queue_.ForEach([&](uint32_t slot, ObjectId id) {
      const Entry* entry = index_.Find(id);
      QDLP_CHECK(entry != nullptr);
      QDLP_CHECK(entry->state() == State::kHirResident);
      QDLP_CHECK(entry->queue == slot);
    });
    // Stack membership matches the actual stack contents.
    stack_.ForEach([&](uint32_t slot, ObjectId id) {
      const Entry* entry = index_.Find(id);
      QDLP_CHECK(entry != nullptr);
      QDLP_CHECK(entry->stack == slot);
    });
    QDLP_CHECK(stack_.size() == flagged_in_stack);
    stack_.CheckInvariants();
    queue_.CheckInvariants();
    index_.CheckInvariants();
  }

  size_t ApproxMetadataBytes() const override {
    return stack_.MemoryBytes() + queue_.MemoryBytes() +
           index_.MemoryBytes() + nonresident_fifo_.size() * sizeof(ObjectId);
  }

 protected:
  bool OnAccess(ObjectId id) override {
    Entry* entry = index_.Find(id);
    if (entry != nullptr && entry->state() == State::kLir) {
      const bool was_bottom = entry->stack == stack_.back();
      stack_.MoveToFront(entry->stack);
      if (was_bottom) {
        PruneStack();
      }
      return true;
    }
    if (entry != nullptr && entry->state() == State::kHirResident) {
      if (entry->in_stack()) {
        // Reuse distance beats the coldest LIR block: upgrade to LIR.
        stack_.MoveToFront(entry->stack);
        queue_.Erase(entry->queue);
        entry->queue = kLirTag;
        ++lir_count_;
        NotifyPromote(id);
        if (lir_count_ > lir_capacity_) {
          DemoteStackBottom();
        }
      } else {
        // Only in Q: refresh both recency orders, stays HIR.
        PushStackTop(id, *entry);
        queue_.MoveToBack(entry->queue);
      }
      return true;
    }

    // Miss (possibly with non-resident history).
    if (resident_count_ == capacity()) {
      if (queue_.empty()) {
        // Only at capacity 1 (no HIR share): the lone LIR block goes.
        DemoteStackBottom();
      }
      EvictFromQueue();
      // Trimming non-resident records may have dropped `id`'s own.
      entry = index_.Find(id);
    }

    if (lir_count_ < lir_capacity_ &&
        (entry == nullptr || !entry->in_stack())) {
      // Warmup: the LIR set is not yet full; admit directly as LIR.
      Entry& admitted = index_[id];
      admitted.queue = kLirTag;
      PushStackTop(id, admitted);
      ++lir_count_;
      ++resident_count_;
      NotifyInsert(id);
      return false;
    }

    if (entry != nullptr && entry->state() == State::kHirNonResident) {
      // The block's reuse distance beats the coldest LIR block: admit as LIR.
      NotifyGhostHit(id);
      entry->queue = kLirTag;
      --nonresident_count_;
      ++lir_count_;
      ++resident_count_;
      PushStackTop(id, *entry);
      NotifyInsert(id);
      if (lir_count_ > lir_capacity_) {
        DemoteStackBottom();
      }
      return false;
    }

    // Cold miss: admit as resident HIR.
    Entry& admitted = index_[id];
    PushStackTop(id, admitted);
    admitted.queue = queue_.PushBack(id);
    ++resident_count_;
    NotifyInsert(id);
    return false;
  }

  void FillOccupancy(CacheStats& stats) const override {
    stats.probation_size = resident_count_ - lir_count_;  // resident HIR (Q)
    stats.main_size = lir_count_;
    stats.ghost_size = nonresident_count_;
  }

 private:
  enum class State {
    kLir,            // resident, in S
    kHirResident,    // resident, in Q, possibly in S
    kHirNonResident, // metadata only, in S
  };

  static constexpr uint32_t kNullSlot = IntrusiveList<ObjectId>::kNullSlot;
  // Entry::queue values above every Q slot.
  static constexpr uint32_t kNonResidentTag = kNullSlot - 1;
  static constexpr uint32_t kLirTag = kNullSlot - 2;

  // 8 bytes. `queue` is the Q slot of a resident HIR block, else the state
  // tag; a null `queue` marks an absent DenseIndex slot. Value{} is a
  // non-resident block on neither list, as the admission paths expect.
  struct Entry {
    uint32_t stack = kNullSlot;  // slot in stack_, or kNullSlot
    uint32_t queue = kNonResidentTag;

    State state() const {
      return queue == kLirTag           ? State::kLir
             : queue == kNonResidentTag ? State::kHirNonResident
                                        : State::kHirResident;
    }
    bool in_stack() const { return stack != kNullSlot; }
    bool in_queue() const { return queue < kLirTag; }

    static Entry DenseAbsent() { return Entry{kNullSlot, kNullSlot}; }
    bool IsDenseAbsent() const { return queue == kNullSlot; }
  };

  void PushStackTop(ObjectId id, Entry& entry) {
    if (entry.in_stack()) {
      stack_.MoveToFront(entry.stack);
    } else {
      entry.stack = stack_.PushFront(id);
    }
  }

  // Removes HIR entries from the stack bottom until a LIR block sits there.
  void PruneStack() {
    while (!stack_.empty()) {
      const uint32_t bottom_slot = stack_.back();
      const ObjectId bottom = stack_[bottom_slot];
      Entry* entry = index_.Find(bottom);
      QDLP_DCHECK(entry != nullptr);
      if (entry->state() == State::kLir) {
        return;
      }
      stack_.Erase(bottom_slot);
      entry->stack = kNullSlot;
      if (entry->state() == State::kHirNonResident) {
        --nonresident_count_;
        index_.Erase(bottom);
      }
      // kHirResident entries stay in Q; only their stack presence ends.
    }
  }

  // Evicts the front of Q (the coldest resident HIR block).
  void EvictFromQueue() {
    QDLP_CHECK(!queue_.empty());
    const uint32_t victim_slot = queue_.front();
    const ObjectId victim = queue_[victim_slot];
    Entry* entry = index_.Find(victim);
    QDLP_DCHECK(entry != nullptr);
    queue_.Erase(victim_slot);
    entry->queue = kNonResidentTag;
    --resident_count_;
    NotifyEvict(victim);
    if (entry->in_stack()) {
      ++nonresident_count_;
      nonresident_fifo_.push_back(victim);
      LimitNonResident();
    } else {
      index_.Erase(victim);
    }
  }

  // Demotes the LIR block at the stack bottom to resident HIR (moves to Q).
  void DemoteStackBottom() {
    QDLP_CHECK(!stack_.empty());
    const uint32_t bottom_slot = stack_.back();
    const ObjectId bottom = stack_[bottom_slot];
    Entry* entry = index_.Find(bottom);
    QDLP_DCHECK(entry != nullptr && entry->state() == State::kLir);
    stack_.Erase(bottom_slot);
    entry->stack = kNullSlot;
    entry->queue = queue_.PushBack(bottom);
    --lir_count_;
    NotifyDemote(bottom);
    PruneStack();
  }

  // Drops the oldest non-resident HIR metadata when over budget.
  void LimitNonResident() {
    while (nonresident_count_ > max_nonresident_ &&
           !nonresident_fifo_.empty()) {
      const ObjectId oldest = nonresident_fifo_.front();
      nonresident_fifo_.pop_front();
      Entry* entry = index_.Find(oldest);
      if (entry == nullptr || entry->state() != State::kHirNonResident) {
        continue;  // stale: the object was re-referenced or already pruned
      }
      if (entry->in_stack()) {
        stack_.Erase(entry->stack);
      }
      --nonresident_count_;
      index_.Erase(oldest);
      PruneStack();
    }
  }

  size_t lir_capacity_;
  size_t hir_capacity_;
  size_t max_nonresident_;

  IntrusiveList<ObjectId> stack_;  // front = top (most recent)
  IntrusiveList<ObjectId> queue_;  // front = eviction candidate
  // Ids in the order they became non-resident; drained (skipping stale
  // entries) to bound the metadata footprint.
  std::deque<ObjectId> nonresident_fifo_;
  typename IndexFactory::template Index<Entry> index_;
  size_t resident_count_ = 0;
  size_t lir_count_ = 0;
  size_t nonresident_count_ = 0;
};

using LirsPolicy = BasicLirsPolicy<FlatIndexFactory>;
using DenseLirsPolicy = BasicLirsPolicy<DenseIndexFactory>;

extern template class BasicLirsPolicy<FlatIndexFactory>;
extern template class BasicLirsPolicy<DenseIndexFactory>;

}  // namespace qdlp

#endif  // QDLP_SRC_POLICIES_LIRS_H_
