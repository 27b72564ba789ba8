#include "tests/oracle/list_lirs.h"

#include <algorithm>
#include <cmath>

namespace qdlp {
namespace oracle {

ListLirsPolicy::ListLirsPolicy(size_t capacity, double hir_fraction,
                       double max_nonresident_factor)
    : EvictionPolicy(capacity, "lirs") {
  QDLP_CHECK(hir_fraction > 0.0 && hir_fraction < 1.0);
  QDLP_CHECK(max_nonresident_factor >= 1.0);
  hir_capacity_ = std::max<size_t>(
      1, static_cast<size_t>(std::lround(static_cast<double>(capacity) *
                                         hir_fraction)));
  hir_capacity_ = std::min(hir_capacity_, capacity - 1 > 0 ? capacity - 1 : 1);
  lir_capacity_ = capacity > hir_capacity_ ? capacity - hir_capacity_ : 1;
  max_nonresident_ = static_cast<size_t>(
      std::lround(static_cast<double>(capacity) * max_nonresident_factor));
  index_.reserve(capacity * 2);
}

bool ListLirsPolicy::Contains(ObjectId id) const {
  const auto it = index_.find(id);
  return it != index_.end() && it->second.state != State::kHirNonResident;
}

bool ListLirsPolicy::StackBottomIsLir() const {
  if (stack_.empty()) {
    return true;
  }
  return index_.at(stack_.back()).state == State::kLir;
}

void ListLirsPolicy::CheckInvariants() const {
  QDLP_CHECK(resident_count_ <= capacity());
  QDLP_CHECK(lir_count_ <= lir_capacity_);
  QDLP_CHECK(nonresident_count_ <= max_nonresident_);
  QDLP_CHECK(StackBottomIsLir());
  // Recount states from the index and cross-check the cached tallies.
  size_t lir = 0;
  size_t hir_resident = 0;
  size_t hir_nonresident = 0;
  for (const auto& [id, entry] : index_) {
    switch (entry.state) {
      case State::kLir:
        ++lir;
        // LIR blocks are always on the stack and never in Q.
        QDLP_CHECK(entry.in_stack);
        QDLP_CHECK(!entry.in_queue);
        break;
      case State::kHirResident:
        ++hir_resident;
        QDLP_CHECK(entry.in_queue);
        break;
      case State::kHirNonResident:
        ++hir_nonresident;
        // Non-resident metadata only exists while it can still matter: the
        // id must sit in stack S (otherwise it should have been dropped).
        QDLP_CHECK(entry.in_stack);
        QDLP_CHECK(!entry.in_queue);
        break;
    }
  }
  QDLP_CHECK(lir == lir_count_);
  QDLP_CHECK(lir + hir_resident == resident_count_);
  QDLP_CHECK(hir_nonresident == nonresident_count_);
  // Q is exactly the resident HIR set.
  QDLP_CHECK(queue_.size() == hir_resident);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const auto entry = index_.find(*it);
    QDLP_CHECK(entry != index_.end());
    QDLP_CHECK(entry->second.state == State::kHirResident);
    QDLP_CHECK(entry->second.in_queue);
    QDLP_CHECK(entry->second.queue_position == it);
  }
  // Stack membership flags match the actual stack contents.
  size_t on_stack = 0;
  for (auto it = stack_.begin(); it != stack_.end(); ++it) {
    const auto entry = index_.find(*it);
    QDLP_CHECK(entry != index_.end());
    QDLP_CHECK(entry->second.in_stack);
    QDLP_CHECK(entry->second.stack_position == it);
    ++on_stack;
  }
  size_t flagged_in_stack = 0;
  for (const auto& [id, entry] : index_) {
    if (entry.in_stack) {
      ++flagged_in_stack;
    }
  }
  QDLP_CHECK(on_stack == flagged_in_stack);
}

void ListLirsPolicy::PushStackTop(ObjectId id, Entry& entry) {
  if (entry.in_stack) {
    stack_.erase(entry.stack_position);
  }
  stack_.push_front(id);
  entry.in_stack = true;
  entry.stack_position = stack_.begin();
}

void ListLirsPolicy::PushQueueBack(ObjectId id, Entry& entry) {
  if (entry.in_queue) {
    queue_.erase(entry.queue_position);
  }
  queue_.push_back(id);
  entry.in_queue = true;
  entry.queue_position = std::prev(queue_.end());
}

void ListLirsPolicy::RemoveFromQueue(ObjectId id, Entry& entry) {
  (void)id;
  if (entry.in_queue) {
    queue_.erase(entry.queue_position);
    entry.in_queue = false;
  }
}

void ListLirsPolicy::PruneStack() {
  while (!stack_.empty()) {
    const ObjectId bottom = stack_.back();
    auto it = index_.find(bottom);
    QDLP_DCHECK(it != index_.end());
    Entry& entry = it->second;
    if (entry.state == State::kLir) {
      return;
    }
    stack_.pop_back();
    entry.in_stack = false;
    if (entry.state == State::kHirNonResident) {
      --nonresident_count_;
      index_.erase(it);
    }
    // kHirResident entries stay in Q; only their stack presence ends.
  }
}

void ListLirsPolicy::EvictFromQueue() {
  QDLP_CHECK(!queue_.empty());
  const ObjectId victim = queue_.front();
  Entry& entry = index_.at(victim);
  queue_.pop_front();
  entry.in_queue = false;
  --resident_count_;
  NotifyEvict(victim);
  if (entry.in_stack) {
    entry.state = State::kHirNonResident;
    ++nonresident_count_;
    nonresident_fifo_.push_back(victim);
    LimitNonResident();
  } else {
    index_.erase(victim);
  }
}

void ListLirsPolicy::DemoteStackBottom() {
  QDLP_CHECK(!stack_.empty());
  const ObjectId bottom = stack_.back();
  Entry& entry = index_.at(bottom);
  QDLP_DCHECK(entry.state == State::kLir);
  stack_.pop_back();
  entry.in_stack = false;
  entry.state = State::kHirResident;
  --lir_count_;
  NotifyDemote(bottom);
  PushQueueBack(bottom, entry);
  PruneStack();
}

void ListLirsPolicy::LimitNonResident() {
  while (nonresident_count_ > max_nonresident_ && !nonresident_fifo_.empty()) {
    const ObjectId oldest = nonresident_fifo_.front();
    nonresident_fifo_.pop_front();
    auto it = index_.find(oldest);
    if (it == index_.end() || it->second.state != State::kHirNonResident) {
      continue;  // stale: the object was re-referenced or already pruned
    }
    Entry& entry = it->second;
    if (entry.in_stack) {
      stack_.erase(entry.stack_position);
    }
    --nonresident_count_;
    index_.erase(it);
    PruneStack();
  }
}

bool ListLirsPolicy::OnAccess(ObjectId id) {
  auto it = index_.find(id);
  if (it != index_.end() && it->second.state == State::kLir) {
    Entry& entry = it->second;
    const bool was_bottom = entry.stack_position == std::prev(stack_.end());
    PushStackTop(id, entry);
    if (was_bottom) {
      PruneStack();
    }
    return true;
  }
  if (it != index_.end() && it->second.state == State::kHirResident) {
    Entry& entry = it->second;
    if (entry.in_stack) {
      // Reuse distance beats the coldest LIR block: upgrade to LIR.
      PushStackTop(id, entry);
      entry.state = State::kLir;
      ++lir_count_;
      NotifyPromote(id);
      RemoveFromQueue(id, entry);
      if (lir_count_ > lir_capacity_) {
        DemoteStackBottom();
      }
    } else {
      // Only in Q: refresh both recency orders, stays HIR.
      PushStackTop(id, entry);
      PushQueueBack(id, entry);
    }
    return true;
  }

  // Miss (possibly with non-resident history).
  if (resident_count_ == capacity()) {
    EvictFromQueue();
    // EvictFromQueue may have erased and re-hashed; re-find.
    it = index_.find(id);
  }

  if (lir_count_ < lir_capacity_ && (it == index_.end() || !it->second.in_stack)) {
    // Warmup: the LIR set is not yet full; admit directly as LIR.
    Entry& entry = index_[id];
    entry.state = State::kLir;
    entry.in_queue = false;
    PushStackTop(id, entry);
    ++lir_count_;
    ++resident_count_;
    NotifyInsert(id);
    return false;
  }

  if (it != index_.end() && it->second.state == State::kHirNonResident) {
    // The block's reuse distance beats the coldest LIR block: admit as LIR.
    NotifyGhostHit(id);
    Entry& entry = it->second;
    entry.state = State::kLir;
    --nonresident_count_;
    ++lir_count_;
    ++resident_count_;
    PushStackTop(id, entry);
    NotifyInsert(id);
    if (lir_count_ > lir_capacity_) {
      DemoteStackBottom();
    }
    return false;
  }

  // Cold miss: admit as resident HIR.
  Entry& entry = index_[id];
  entry.state = State::kHirResident;
  PushStackTop(id, entry);
  PushQueueBack(id, entry);
  ++resident_count_;
  NotifyInsert(id);
  return false;
}

}  // namespace oracle
}  // namespace qdlp
