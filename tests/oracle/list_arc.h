// Reference model: the std::list + std::unordered_map ARC that
// src/policies/arc.h's slab-list BasicArcPolicy replaced, kept verbatim
// (renamed into namespace oracle) as the exact oracle for that rewrite —
// see ListOracleDifferentialTest in tests/oracle_differential_test.cc.
//
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

#ifndef QDLP_TESTS_ORACLE_LIST_ARC_H_
#define QDLP_TESTS_ORACLE_LIST_ARC_H_

#include <list>
#include <unordered_map>

#include "src/policies/eviction_policy.h"

namespace qdlp {
namespace oracle {

class ListArcPolicy : public EvictionPolicy {
 public:
  // `adaptation_rate` scales the ghost-hit delta applied to the target p;
  // §5 observes that "slowing down the queue size adjustment often reduces
  // miss ratios" — rate < 1 tests that. `fixed_p_fraction` >= 0 pins p to
  // that fraction of capacity and disables adaptation entirely (§5's
  // "manually limiting the queue size").
  explicit ListArcPolicy(size_t capacity, double adaptation_rate = 1.0,
                     double fixed_p_fraction = -1.0);

  size_t size() const override { return t1_.size() + t2_.size(); }
  bool Contains(ObjectId id) const override;

  // Invariant accessors used by tests.
  size_t t1_size() const { return t1_.size(); }
  size_t t2_size() const { return t2_.size(); }
  size_t b1_size() const { return b1_.size(); }
  size_t b2_size() const { return b2_.size(); }
  double target_p() const { return p_; }

  // FAST'03 §I.B invariants: |T1|+|T2| <= c, |T1|+|B1| <= c,
  // |T1|+|T2|+|B1|+|B2| <= 2c, p in [0, c], plus index/list consistency.
  void CheckInvariants() const override;

 protected:
  bool OnAccess(ObjectId id) override;
  void FillOccupancy(CacheStats& stats) const override {
    stats.probation_size = t1_.size();
    stats.main_size = t2_.size();
    stats.ghost_size = b1_.size() + b2_.size();
  }

 private:
  enum class ListId { kT1, kT2, kB1, kB2 };
  struct Entry {
    ListId list;
    std::list<ObjectId>::iterator position;
  };

  std::list<ObjectId>& ListFor(ListId list);

  // REPLACE(x, p): evicts the LRU of T1 or T2 into the matching ghost list.
  void Replace(bool requested_in_b2);
  void MoveTo(ObjectId id, ListId target);
  void RemoveFrom(ObjectId id);

  double p_ = 0.0;  // target size of T1
  double adaptation_rate_ = 1.0;
  bool adaptive_ = true;
  std::list<ObjectId> t1_, t2_, b1_, b2_;  // front = MRU
  std::unordered_map<ObjectId, Entry> index_;
};

}  // namespace oracle
}  // namespace qdlp

#endif  // QDLP_TESTS_ORACLE_LIST_ARC_H_
