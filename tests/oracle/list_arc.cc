#include "tests/oracle/list_arc.h"

#include <algorithm>

namespace qdlp {
namespace oracle {

namespace {
std::string ArcName(double adaptation_rate, double fixed_p_fraction) {
  if (fixed_p_fraction >= 0.0) {
    return "arc-fixed";
  }
  if (adaptation_rate != 1.0) {
    return "arc-slow";
  }
  return "arc";
}
}  // namespace

ListArcPolicy::ListArcPolicy(size_t capacity, double adaptation_rate,
                     double fixed_p_fraction)
    : EvictionPolicy(capacity, ArcName(adaptation_rate, fixed_p_fraction)),
      adaptation_rate_(adaptation_rate) {
  QDLP_CHECK(adaptation_rate > 0.0);
  if (fixed_p_fraction >= 0.0) {
    QDLP_CHECK(fixed_p_fraction <= 1.0);
    adaptive_ = false;
    p_ = fixed_p_fraction * static_cast<double>(capacity);
  }
  index_.reserve(capacity * 2);
}

bool ListArcPolicy::Contains(ObjectId id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) {
    return false;
  }
  return it->second.list == ListId::kT1 || it->second.list == ListId::kT2;
}

void ListArcPolicy::CheckInvariants() const {
  const size_t c = capacity();
  QDLP_CHECK(t1_.size() + t2_.size() <= c);
  QDLP_CHECK(t1_.size() + b1_.size() <= c);
  QDLP_CHECK(t1_.size() + t2_.size() + b1_.size() + b2_.size() <= 2 * c);
  QDLP_CHECK(p_ >= 0.0 && p_ <= static_cast<double>(c));
  QDLP_CHECK(index_.size() ==
             t1_.size() + t2_.size() + b1_.size() + b2_.size());
  // Every list member is indexed under the matching list id with a valid
  // iterator; index_.size() matching the sum above rules out duplicates.
  const auto check_list = [&](const std::list<ObjectId>& list, ListId id) {
    for (auto it = list.begin(); it != list.end(); ++it) {
      const auto entry = index_.find(*it);
      QDLP_CHECK(entry != index_.end());
      QDLP_CHECK(entry->second.list == id);
      QDLP_CHECK(entry->second.position == it);
    }
  };
  check_list(t1_, ListId::kT1);
  check_list(t2_, ListId::kT2);
  check_list(b1_, ListId::kB1);
  check_list(b2_, ListId::kB2);
}

std::list<ObjectId>& ListArcPolicy::ListFor(ListId list) {
  switch (list) {
    case ListId::kT1:
      return t1_;
    case ListId::kT2:
      return t2_;
    case ListId::kB1:
      return b1_;
    case ListId::kB2:
      return b2_;
  }
  QDLP_CHECK(false);
  return t1_;
}

void ListArcPolicy::MoveTo(ObjectId id, ListId target) {
  auto& entry = index_.at(id);
  ListFor(entry.list).erase(entry.position);
  auto& dest = ListFor(target);
  dest.push_front(id);
  entry.list = target;
  entry.position = dest.begin();
}

void ListArcPolicy::RemoveFrom(ObjectId id) {
  auto it = index_.find(id);
  QDLP_DCHECK(it != index_.end());
  ListFor(it->second.list).erase(it->second.position);
  index_.erase(it);
}

void ListArcPolicy::Replace(bool requested_in_b2) {
  const size_t t1_size = t1_.size();
  if (t1_size > 0 &&
      (static_cast<double>(t1_size) > p_ ||
       (requested_in_b2 && static_cast<double>(t1_size) == p_))) {
    // Demote the LRU of T1 into ghost B1.
    const ObjectId victim = t1_.back();
    NotifyDemote(victim);
    NotifyEvict(victim);
    MoveTo(victim, ListId::kB1);
  } else {
    const ObjectId victim = t2_.back();
    NotifyDemote(victim);
    NotifyEvict(victim);
    MoveTo(victim, ListId::kB2);
  }
}

bool ListArcPolicy::OnAccess(ObjectId id) {
  const size_t c = capacity();
  const auto it = index_.find(id);
  if (it != index_.end()) {
    switch (it->second.list) {
      case ListId::kT1:
      case ListId::kT2:
        // Case I: hit — promote to the MRU of T2.
        MoveTo(id, ListId::kT2);
        NotifyPromote(id);
        return true;
      case ListId::kB1: {
        // Case II: ghost hit in B1 — grow the recency target.
        const double delta =
            b1_.size() >= b2_.size()
                ? 1.0
                : static_cast<double>(b2_.size()) / static_cast<double>(b1_.size());
        if (adaptive_) {
          p_ = std::min(p_ + delta * adaptation_rate_, static_cast<double>(c));
        }
        NotifyGhostHit(id);
        Replace(/*requested_in_b2=*/false);
        MoveTo(id, ListId::kT2);
        NotifyInsert(id);
        return false;
      }
      case ListId::kB2: {
        // Case III: ghost hit in B2 — grow the frequency target.
        const double delta =
            b2_.size() >= b1_.size()
                ? 1.0
                : static_cast<double>(b1_.size()) / static_cast<double>(b2_.size());
        if (adaptive_) {
          p_ = std::max(p_ - delta * adaptation_rate_, 0.0);
        }
        NotifyGhostHit(id);
        Replace(/*requested_in_b2=*/true);
        MoveTo(id, ListId::kT2);
        NotifyInsert(id);
        return false;
      }
    }
  }
  // Case IV: complete miss.
  const size_t l1 = t1_.size() + b1_.size();
  const size_t l2 = t2_.size() + b2_.size();
  if (l1 == c) {
    if (t1_.size() < c) {
      // Delete the LRU ghost in B1, then replace.
      RemoveFrom(b1_.back());
      Replace(/*requested_in_b2=*/false);
    } else {
      // B1 is empty and T1 is full: evict the LRU of T1 outright.
      const ObjectId victim = t1_.back();
      NotifyEvict(victim);
      RemoveFrom(victim);
    }
  } else if (l1 < c && l1 + l2 >= c) {
    if (l1 + l2 == 2 * c) {
      RemoveFrom(b2_.back());
    }
    Replace(/*requested_in_b2=*/false);
  }
  t1_.push_front(id);
  index_[id] = Entry{ListId::kT1, t1_.begin()};
  NotifyInsert(id);
  return false;
}

}  // namespace oracle
}  // namespace qdlp
