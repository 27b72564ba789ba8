// ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST'03).
//
// Four LRU lists: T1 (recent, resident), T2 (frequent, resident), and their
// ghost extensions B1/B2 (metadata only). The adaptation target p shifts
// capacity between recency and frequency based on which ghost list takes
// hits. This is the strongest conventional baseline in the paper ("the best
// state-of-the-art algorithm, ARC, can only reduce the miss ratio of LRU 6.2%
// on average") and the first candidate for QD enhancement.
//
// Implementation follows Fig. 4 of the FAST'03 paper exactly.
//
// Storage is four slab-backed intrusive lists plus one id index whose u32
// value packs the list tag (2 bits) and the slot in that list (30 bits), so
// a hit or a move between lists is an unlink plus a push within the slabs.
// The index backing is a template parameter: ArcPolicy probes an
// open-addressing FlatMap, DenseArcPolicy (batched sweep engine, dense
// traces) a direct-indexed slot array. Decisions depend only on list
// membership and order, never on id values, so both variants agree.

#ifndef QDLP_SRC_POLICIES_ARC_H_
#define QDLP_SRC_POLICIES_ARC_H_

#include <algorithm>
#include <string>

#include "src/policies/eviction_policy.h"
#include "src/util/dense_index.h"
#include "src/util/intrusive_list.h"

namespace qdlp {

template <typename IndexFactory>
class BasicArcPolicy : public EvictionPolicy {
 public:
  // `adaptation_rate` scales the ghost-hit delta applied to the target p;
  // §5 observes that "slowing down the queue size adjustment often reduces
  // miss ratios" — rate < 1 tests that. `fixed_p_fraction` >= 0 pins p to
  // that fraction of capacity and disables adaptation entirely (§5's
  // "manually limiting the queue size").
  explicit BasicArcPolicy(size_t capacity, double adaptation_rate = 1.0,
                          double fixed_p_fraction = -1.0,
                          IndexFactory factory = {})
      : EvictionPolicy(capacity, Name(adaptation_rate, fixed_p_fraction)),
        adaptation_rate_(adaptation_rate),
        index_(factory.template Make<uint32_t>()) {
    QDLP_CHECK(adaptation_rate > 0.0);
    // B2 holds up to 2c entries; their slots must fit the 30-bit field.
    QDLP_CHECK(capacity < (size_t{1} << (kSlotBits - 1)));
    if (fixed_p_fraction >= 0.0) {
      QDLP_CHECK(fixed_p_fraction <= 1.0);
      adaptive_ = false;
      p_ = fixed_p_fraction * static_cast<double>(capacity);
    }
    // A complete miss emplaces the newcomer before trimming a ghost, so the
    // index transiently holds 2 * capacity + 1 entries. Reserve sizes for
    // <= 50% load, which leaves room for the extra one.
    index_.Reserve(2 * capacity);
  }

  size_t size() const override {
    return lists_[kT1].size() + lists_[kT2].size();
  }
  bool Contains(ObjectId id) const override {
    const uint32_t* entry = index_.Find(id);
    return entry != nullptr && ListOf(*entry) <= kT2;
  }

  uint64_t AccessBatch(const uint32_t* ids, size_t n) override {
    return PrefetchPipelinedBatch(*this, index_, ids, n);
  }

  // Invariant accessors used by tests.
  size_t t1_size() const { return lists_[kT1].size(); }
  size_t t2_size() const { return lists_[kT2].size(); }
  size_t b1_size() const { return lists_[kB1].size(); }
  size_t b2_size() const { return lists_[kB2].size(); }
  double target_p() const { return p_; }

  // FAST'03 §I.B invariants: |T1|+|T2| <= c, |T1|+|B1| <= c,
  // |T1|+|T2|+|B1|+|B2| <= 2c, p in [0, c], plus index/list consistency.
  void CheckInvariants() const override {
    const size_t c = capacity();
    const size_t t1 = t1_size();
    const size_t t2 = t2_size();
    const size_t b1 = b1_size();
    const size_t b2 = b2_size();
    QDLP_CHECK(t1 + t2 <= c);
    QDLP_CHECK(t1 + b1 <= c);
    QDLP_CHECK(t1 + t2 + b1 + b2 <= 2 * c);
    QDLP_CHECK(p_ >= 0.0 && p_ <= static_cast<double>(c));
    QDLP_CHECK(index_.size() == t1 + t2 + b1 + b2);
    // Every list member is indexed under the matching list tag and slot;
    // index_.size() matching the sum above rules out duplicates.
    for (uint32_t tag = kT1; tag <= kB2; ++tag) {
      const IntrusiveList<ObjectId>& members = lists_[tag];
      members.ForEach([&](uint32_t slot, ObjectId id) {
        const uint32_t* entry = index_.Find(id);
        QDLP_CHECK(entry != nullptr);
        QDLP_CHECK(*entry == Pack(static_cast<ListId>(tag), slot));
      });
      members.CheckInvariants();
    }
    index_.CheckInvariants();
  }

  size_t ApproxMetadataBytes() const override {
    size_t bytes = index_.MemoryBytes();
    for (const auto& members : lists_) {
      bytes += members.MemoryBytes();
    }
    return bytes;
  }

 protected:
  bool OnAccess(ObjectId id) override {
    const size_t c = capacity();
    // One probe covers lookup and, on a complete miss, insertion. Erase of
    // other ids never relocates live index slots, so `entry` stays valid
    // across the ghost trimming and REPLACE below.
    const auto [entry, inserted] = index_.Emplace(id);
    if (!inserted) {
      switch (ListOf(*entry)) {
        case kT1:
        case kT2:
          // Case I: hit — promote to the MRU of T2.
          MoveTo(id, *entry, kT2);
          NotifyPromote(id);
          return true;
        case kB1: {
          // Case II: ghost hit in B1 — grow the recency target.
          const double delta =
              b1_size() >= b2_size()
                  ? 1.0
                  : static_cast<double>(b2_size()) /
                        static_cast<double>(b1_size());
          if (adaptive_) {
            p_ = std::min(p_ + delta * adaptation_rate_,
                          static_cast<double>(c));
          }
          NotifyGhostHit(id);
          Replace(/*requested_in_b2=*/false);
          MoveTo(id, *entry, kT2);
          NotifyInsert(id);
          return false;
        }
        case kB2: {
          // Case III: ghost hit in B2 — grow the frequency target.
          const double delta =
              b2_size() >= b1_size()
                  ? 1.0
                  : static_cast<double>(b1_size()) /
                        static_cast<double>(b2_size());
          if (adaptive_) {
            p_ = std::max(p_ - delta * adaptation_rate_, 0.0);
          }
          NotifyGhostHit(id);
          Replace(/*requested_in_b2=*/true);
          MoveTo(id, *entry, kT2);
          NotifyInsert(id);
          return false;
        }
      }
    }
    // Case IV: complete miss.
    const size_t l1 = t1_size() + b1_size();
    const size_t l2 = t2_size() + b2_size();
    if (l1 == c) {
      if (t1_size() < c) {
        // Delete the LRU ghost in B1, then replace.
        DropLru(kB1);
        Replace(/*requested_in_b2=*/false);
      } else {
        // B1 is empty and T1 is full: evict the LRU of T1 outright.
        NotifyEvict(DropLru(kT1));
      }
    } else if (l1 < c && l1 + l2 >= c) {
      if (l1 + l2 == 2 * c) {
        DropLru(kB2);
      }
      Replace(/*requested_in_b2=*/false);
    }
    *entry = Pack(kT1, lists_[kT1].PushFront(id));
    NotifyInsert(id);
    return false;
  }

  void FillOccupancy(CacheStats& stats) const override {
    stats.probation_size = t1_size();
    stats.main_size = t2_size();
    stats.ghost_size = b1_size() + b2_size();
  }

 private:
  enum ListId : uint32_t { kT1, kT2, kB1, kB2 };
  static constexpr int kSlotBits = 30;
  static constexpr uint32_t kSlotMask = (uint32_t{1} << kSlotBits) - 1;

  static uint32_t Pack(ListId tag, uint32_t slot) {
    return static_cast<uint32_t>(tag) << kSlotBits | slot;
  }
  static ListId ListOf(uint32_t entry) {
    return static_cast<ListId>(entry >> kSlotBits);
  }
  static uint32_t SlotOf(uint32_t entry) { return entry & kSlotMask; }

  static std::string Name(double adaptation_rate, double fixed_p_fraction) {
    if (fixed_p_fraction >= 0.0) {
      return "arc-fixed";
    }
    return adaptation_rate != 1.0 ? "arc-slow" : "arc";
  }

  // Moves the entry of `id` to the MRU end of `target`.
  void MoveTo(ObjectId id, uint32_t& entry, ListId target) {
    const ListId from = ListOf(entry);
    if (from == target) {
      lists_[target].MoveToFront(SlotOf(entry));
      return;
    }
    lists_[from].Erase(SlotOf(entry));
    entry = Pack(target, lists_[target].PushFront(id));
  }

  // Unindexes and unlinks the LRU of `tag`; returns its id.
  ObjectId DropLru(ListId tag) {
    IntrusiveList<ObjectId>& members = lists_[tag];
    QDLP_DCHECK(!members.empty());
    const uint32_t slot = members.back();
    const ObjectId victim = members[slot];
    members.Erase(slot);
    index_.Erase(victim);
    return victim;
  }

  // REPLACE(x, p): evicts the LRU of T1 or T2 into the matching ghost list.
  void Replace(bool requested_in_b2) {
    const size_t t1_size = lists_[kT1].size();
    const ListId from =
        t1_size > 0 && (static_cast<double>(t1_size) > p_ ||
                        (requested_in_b2 && static_cast<double>(t1_size) == p_))
            ? kT1
            : kT2;
    IntrusiveList<ObjectId>& members = lists_[from];
    QDLP_DCHECK(!members.empty());
    const ObjectId victim = members[members.back()];
    NotifyDemote(victim);
    NotifyEvict(victim);
    uint32_t* entry = index_.Find(victim);
    QDLP_DCHECK(entry != nullptr);
    MoveTo(victim, *entry, from == kT1 ? kB1 : kB2);
  }

  double p_ = 0.0;  // target size of T1
  double adaptation_rate_ = 1.0;
  bool adaptive_ = true;
  IntrusiveList<ObjectId> lists_[4];  // indexed by ListId; front = MRU
  // id -> Pack(list, slot)
  typename IndexFactory::template Index<uint32_t> index_;
};

using ArcPolicy = BasicArcPolicy<FlatIndexFactory>;
using DenseArcPolicy = BasicArcPolicy<DenseIndexFactory>;

extern template class BasicArcPolicy<FlatIndexFactory>;
extern template class BasicArcPolicy<DenseIndexFactory>;

}  // namespace qdlp

#endif  // QDLP_SRC_POLICIES_ARC_H_
