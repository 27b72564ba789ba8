// S3-FIFO (Yang et al., SOSP'23) — the eviction algorithm that grew out of
// this paper's LEGO recipe: three FIFO queues, nothing else.
//
//  * Small FIFO (default 10% of space): probation for new objects.
//  * Main FIFO (90%): holds objects with proven reuse; eviction uses lazy
//    promotion (2-bit frequency counter, reinsertion while counter > 0).
//  * Ghost FIFO: ids evicted from the small queue; a ghost hit admits the
//    object straight into the main queue.
//
// Relative to QD-LP-FIFO (QdCache over 2-bit CLOCK) the difference is
// mechanical: the main queue is a FIFO with reinsert-on-nonzero-counter
// rather than a CLOCK ring, and small-queue evictees need freq >= 1 to be
// promoted. Included as the paper's "future work made concrete" extension.
//
// Both resident FIFOs are slab-backed intrusive queues sharing one id
// index; a main-queue reinsertion is an O(1) splice within the slab rather
// than a pop + push of heap nodes. The index backing (resident index and
// ghost index alike) is a template parameter: S3FifoPolicy probes
// open-addressing FlatMaps, DenseS3FifoPolicy (batched sweep engine, dense
// traces) direct-indexed slot arrays.

#ifndef QDLP_SRC_CORE_S3FIFO_H_
#define QDLP_SRC_CORE_S3FIFO_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/core/ghost_queue.h"
#include "src/policies/eviction_policy.h"
#include "src/util/dense_index.h"
#include "src/util/intrusive_list.h"

namespace qdlp {

template <typename IndexFactory>
class BasicS3FifoPolicy : public EvictionPolicy {
 public:
  explicit BasicS3FifoPolicy(size_t capacity, double small_fraction = 0.10,
                             double ghost_factor = 0.9,
                             IndexFactory factory = {})
      : EvictionPolicy(capacity, "s3fifo"),
        small_capacity_(std::max<size_t>(
            1, static_cast<size_t>(std::llround(
                   static_cast<double>(capacity) * small_fraction)))),
        ghost_(std::max<size_t>(
                   1, static_cast<size_t>(std::llround(
                          static_cast<double>(capacity) * ghost_factor))),
               factory),
        index_(factory.template Make<Entry>()) {
    QDLP_CHECK(small_fraction > 0.0 && small_fraction < 1.0);
    small_capacity_ = std::min(small_capacity_, capacity);
    index_.Reserve(capacity);
    small_fifo_.Reserve(small_capacity_);
    main_fifo_.Reserve(capacity);
  }

  size_t size() const override { return index_.size(); }
  bool Contains(ObjectId id) const override { return index_.Contains(id); }

  uint64_t AccessBatch(const uint32_t* ids, size_t n) override {
    return PrefetchPipelinedBatch(*this, index_, ids, n);
  }

  size_t small_size() const { return small_fifo_.size(); }
  size_t main_size() const { return main_fifo_.size(); }

  // Queue-size accounting (small + main partition the resident set) and
  // ghost/resident disjointness.
  void CheckInvariants() const override {
    QDLP_CHECK(index_.size() <= capacity());
    QDLP_CHECK(small_fifo_.size() + main_fifo_.size() == index_.size());
    small_fifo_.ForEach([&](uint32_t slot, ObjectId id) {
      const Entry* entry = index_.Find(id);
      QDLP_CHECK(entry != nullptr);
      QDLP_CHECK(entry->where == Where::kSmall);
      QDLP_CHECK(entry->slot == slot);
    });
    main_fifo_.ForEach([&](uint32_t slot, ObjectId id) {
      const Entry* entry = index_.Find(id);
      QDLP_CHECK(entry != nullptr);
      QDLP_CHECK(entry->where == Where::kMain);
      QDLP_CHECK(entry->slot == slot);
    });
    // Ghost entries are ids that were evicted; none may still be resident.
    ghost_.ForEachLive(
        [&](ObjectId id) { QDLP_CHECK(!index_.Contains(id)); });
    ghost_.CheckInvariants();
    small_fifo_.CheckInvariants();
    main_fifo_.CheckInvariants();
    index_.CheckInvariants();
  }

  size_t ApproxMetadataBytes() const override {
    return small_fifo_.MemoryBytes() + main_fifo_.MemoryBytes() +
           index_.MemoryBytes() + ghost_.ApproxMetadataBytes();
  }

 protected:
  bool OnAccess(ObjectId id) override {
    Entry* entry = index_.Find(id);
    if (entry != nullptr) {
      entry->freq = std::min<uint8_t>(entry->freq + 1, kMaxFreq);
      return true;
    }
    MakeRoom();
    if (ghost_.Consume(id)) {
      NotifyGhostHit(id);
      InsertMain(id);
    } else {
      InsertSmall(id);
    }
    return false;
  }

  void FillOccupancy(CacheStats& stats) const override {
    stats.probation_size = small_fifo_.size();
    stats.main_size = main_fifo_.size();
    stats.ghost_size = ghost_.size();
  }

 private:
  static constexpr uint8_t kMaxFreq = 3;

  enum class Where : uint8_t { kSmall, kMain };
  struct Entry {
    uint32_t slot = 0;  // slot in the FIFO matching `where`
    Where where = Where::kSmall;
    uint8_t freq = 0;

    // A null slot marks an absent DenseIndex slot.
    static Entry DenseAbsent() {
      return {IntrusiveList<ObjectId>::kNullSlot, Where::kSmall, 0};
    }
    bool IsDenseAbsent() const {
      return slot == IntrusiveList<ObjectId>::kNullSlot;
    }
  };

  void InsertSmall(ObjectId id) {
    const uint32_t slot = small_fifo_.PushBack(id);
    index_[id] = Entry{slot, Where::kSmall, 0};
    NotifyInsert(id);
  }

  void InsertMain(ObjectId id) {
    const uint32_t slot = main_fifo_.PushBack(id);
    index_[id] = Entry{slot, Where::kMain, 0};
    NotifyInsert(id);
  }

  void EvictSmall() {
    QDLP_DCHECK(!small_fifo_.empty());
    const uint32_t victim_slot = small_fifo_.front();
    const ObjectId victim = small_fifo_[victim_slot];
    small_fifo_.Erase(victim_slot);
    Entry* entry = index_.Find(victim);
    QDLP_DCHECK(entry != nullptr && entry->where == Where::kSmall);
    if (entry->freq >= 1) {
      // Re-accessed while on probation: promote into the main FIFO. This
      // does not free space; the caller keeps evicting until space appears.
      entry->slot = main_fifo_.PushBack(victim);
      entry->where = Where::kMain;
      entry->freq = 0;
      NotifyPromote(victim);
    } else {
      index_.Erase(victim);
      ghost_.Insert(victim);
      NotifyDemote(victim);
      NotifyEvict(victim);
    }
  }

  void EvictMain() {
    while (true) {
      QDLP_DCHECK(!main_fifo_.empty());
      const uint32_t candidate_slot = main_fifo_.front();
      const ObjectId candidate = main_fifo_[candidate_slot];
      Entry* entry = index_.Find(candidate);
      QDLP_DCHECK(entry != nullptr && entry->where == Where::kMain);
      if (entry->freq > 0) {
        // Lazy promotion: demonstrated reuse buys another lap at freq - 1.
        --entry->freq;
        main_fifo_.MoveToBack(candidate_slot);
        NotifyPromote(candidate);
        continue;
      }
      main_fifo_.Erase(candidate_slot);
      index_.Erase(candidate);
      NotifyEvict(candidate);
      return;
    }
  }

  // Frees space according to the S3-FIFO rule: evict from small when it is
  // over its share, otherwise from main.
  void MakeRoom() {
    while (index_.size() >= capacity()) {
      if (!small_fifo_.empty() &&
          (small_fifo_.size() >= small_capacity_ || main_fifo_.empty())) {
        EvictSmall();
      } else {
        EvictMain();
      }
    }
  }

  size_t small_capacity_;
  // Each resident id appears exactly once, in the FIFO matching its
  // Entry::where (CheckInvariants enforces this).
  IntrusiveList<ObjectId> small_fifo_;  // front = oldest
  IntrusiveList<ObjectId> main_fifo_;
  BasicGhostQueue<IndexFactory> ghost_;
  typename IndexFactory::template Index<Entry> index_;
};

using S3FifoPolicy = BasicS3FifoPolicy<FlatIndexFactory>;
using DenseS3FifoPolicy = BasicS3FifoPolicy<DenseIndexFactory>;

extern template class BasicS3FifoPolicy<FlatIndexFactory>;
extern template class BasicS3FifoPolicy<DenseIndexFactory>;

}  // namespace qdlp

#endif  // QDLP_SRC_CORE_S3FIFO_H_
