#include "tests/oracle/reference_models.h"

#include <algorithm>
#include <cmath>

namespace qdlp {
namespace oracle {

namespace {

// The factory rounds fractional capacities with llround and clamps to at
// least one object; the oracles must split budgets the same way.
size_t ScaledCapacity(size_t capacity, double fraction) {
  return std::max<size_t>(
      1, static_cast<size_t>(
             std::llround(static_cast<double>(capacity) * fraction)));
}

}  // namespace

// ---------------------------------------------------------------------------
// RefFifo

bool RefFifo::Access(ObjectId id) {
  if (Contains(id)) {
    return true;
  }
  if (queue_.size() == capacity_) {
    queue_.pop_front();
  }
  queue_.push_back(id);
  return false;
}

bool RefFifo::Contains(ObjectId id) const {
  return std::find(queue_.begin(), queue_.end(), id) != queue_.end();
}

// ---------------------------------------------------------------------------
// RefLru

bool RefLru::Access(ObjectId id) {
  const auto it = std::find(mru_.begin(), mru_.end(), id);
  if (it != mru_.end()) {
    mru_.erase(it);
    mru_.insert(mru_.begin(), id);
    return true;
  }
  if (mru_.size() == capacity_) {
    mru_.pop_back();
  }
  mru_.insert(mru_.begin(), id);
  return false;
}

bool RefLru::Contains(ObjectId id) const {
  return std::find(mru_.begin(), mru_.end(), id) != mru_.end();
}

// ---------------------------------------------------------------------------
// RefLfu

bool RefLfu::Access(ObjectId id) {
  ++clock_;
  for (Entry& entry : entries_) {
    if (entry.id == id) {
      ++entry.frequency;
      entry.stamp = clock_;
      return true;
    }
  }
  if (entries_.size() == capacity_) {
    // Victim: minimal frequency; among those, the one that reached its
    // current frequency earliest (LfuPolicy evicts its bucket's back).
    size_t victim = 0;
    for (size_t i = 1; i < entries_.size(); ++i) {
      const Entry& cand = entries_[i];
      const Entry& best = entries_[victim];
      if (cand.frequency < best.frequency ||
          (cand.frequency == best.frequency && cand.stamp < best.stamp)) {
        victim = i;
      }
    }
    entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(victim));
  }
  entries_.push_back(Entry{id, 1, clock_});
  return false;
}

bool RefLfu::Contains(ObjectId id) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.id == id; });
}

// ---------------------------------------------------------------------------
// RefClock

RefClock::RefClock(size_t capacity, int bits)
    : capacity_(capacity), max_counter_((1 << bits) - 1) {}

bool RefClock::Access(ObjectId id) {
  for (auto& [entry_id, counter] : queue_) {
    if (entry_id == id) {
      counter = std::min(counter + 1, max_counter_);
      return true;
    }
  }
  while (queue_.size() >= capacity_) {
    auto [victim, counter] = queue_.front();
    queue_.pop_front();
    if (victim == kHole) {
      --holes_;  // a removed object's place: free space, nothing evicted
    } else if (counter > 0) {
      queue_.emplace_back(victim, counter - 1);  // second chance
    } else {
      ++evictions_;  // evicted outright
    }
  }
  queue_.emplace_back(id, 0);
  return false;
}

bool RefClock::Remove(ObjectId id) {
  for (auto& entry : queue_) {
    if (entry.first == id) {
      entry = {kHole, 0};
      ++holes_;
      return true;
    }
  }
  return false;
}

bool RefClock::Contains(ObjectId id) const {
  return std::any_of(queue_.begin(), queue_.end(),
                     [&](const auto& e) { return e.first == id; });
}

// ---------------------------------------------------------------------------
// RefSieve

bool RefSieve::Access(ObjectId id) {
  for (Node& node : queue_) {
    if (node.id == id) {
      node.visited = true;
      return true;
    }
  }
  if (queue_.size() == capacity_) {
    EvictOne();
  }
  queue_.push_back(Node{id, false});  // newest end
  return false;
}

void RefSieve::EvictOne() {
  // The hand resumes where the previous eviction stopped; when unset (or
  // after it passed the newest entry) it restarts at the oldest.
  if (hand_ == kNoHand) {
    hand_ = 0;
  }
  // Sweep from older to newer, clearing visited bits, until an unvisited
  // victim is found. Wrap from the newest entry back to the oldest.
  while (queue_[hand_].visited) {
    queue_[hand_].visited = false;
    hand_ = (hand_ + 1 == queue_.size()) ? 0 : hand_ + 1;
  }
  queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(hand_));
  // The element after the victim (toward newer) shifted into hand_'s index;
  // that is exactly where the hand should rest. If the victim was the
  // newest entry the hand falls off the end and is reset.
  if (hand_ == queue_.size()) {
    hand_ = kNoHand;
  }
}

bool RefSieve::Contains(ObjectId id) const {
  return std::any_of(queue_.begin(), queue_.end(),
                     [&](const Node& n) { return n.id == id; });
}

// ---------------------------------------------------------------------------
// RefGhost

void RefGhost::Insert(ObjectId id) {
  if (capacity_ == 0) {
    return;
  }
  const auto it = std::find(queue_.begin(), queue_.end(), id);
  if (it != queue_.end()) {
    queue_.erase(it);  // refresh: most recent insert wins
  }
  queue_.push_back(id);
  while (queue_.size() > capacity_) {
    queue_.pop_front();
  }
}

bool RefGhost::Consume(ObjectId id) {
  const auto it = std::find(queue_.begin(), queue_.end(), id);
  if (it == queue_.end()) {
    return false;
  }
  queue_.erase(it);
  return true;
}

bool RefGhost::Contains(ObjectId id) const {
  return std::find(queue_.begin(), queue_.end(), id) != queue_.end();
}

// ---------------------------------------------------------------------------
// RefS3Fifo

RefS3Fifo::RefS3Fifo(size_t capacity, double small_fraction,
                     double ghost_factor)
    : capacity_(capacity),
      small_capacity_(
          std::min(ScaledCapacity(capacity, small_fraction), capacity)),
      ghost_(ScaledCapacity(capacity, ghost_factor)) {}

bool RefS3Fifo::Access(ObjectId id) {
  for (auto& [entry_id, freq] : small_) {
    if (entry_id == id) {
      freq = std::min(freq + 1, 3);
      return true;
    }
  }
  for (auto& [entry_id, freq] : main_) {
    if (entry_id == id) {
      freq = std::min(freq + 1, 3);
      return true;
    }
  }
  MakeRoom();
  if (ghost_.Consume(id)) {
    main_.emplace_back(id, 0);
    ++counters_.ghost_hits;
  } else {
    small_.emplace_back(id, 0);
  }
  return false;
}

bool RefS3Fifo::Remove(ObjectId id) {
  for (auto* queue : {&small_, &main_}) {
    for (auto it = queue->begin(); it != queue->end(); ++it) {
      if (it->first == id) {
        queue->erase(it);
        ++counters_.evictions;
        return true;
      }
    }
  }
  return false;
}

void RefS3Fifo::MakeRoom() {
  while (small_.size() + main_.size() >= capacity_) {
    if (!small_.empty() && (small_.size() >= small_capacity_ || main_.empty())) {
      EvictSmall();
    } else {
      EvictMain();
    }
  }
}

void RefS3Fifo::EvictSmall() {
  auto [victim, freq] = small_.front();
  small_.pop_front();
  if (freq >= 1) {
    // Re-accessed on probation: promote to main (frees no space; the
    // MakeRoom loop keeps going).
    main_.emplace_back(victim, 0);
    ++counters_.promotions;
  } else {
    ghost_.Insert(victim);
    ++counters_.evictions;
    ++counters_.demotions;
  }
}

void RefS3Fifo::EvictMain() {
  while (true) {
    auto [candidate, freq] = main_.front();
    main_.pop_front();
    if (freq > 0) {
      main_.emplace_back(candidate, freq - 1);  // another lap at freq - 1
      ++counters_.promotions;
      continue;
    }
    ++counters_.evictions;
    return;  // evicted outright; main evictions are not ghosted
  }
}

bool RefS3Fifo::Contains(ObjectId id) const {
  const auto match = [&](const auto& e) { return e.first == id; };
  return std::any_of(small_.begin(), small_.end(), match) ||
         std::any_of(main_.begin(), main_.end(), match);
}

// ---------------------------------------------------------------------------
// RefQdLpFifo

RefQdLpFifo::RefQdLpFifo(size_t probation_capacity, size_t main_capacity,
                         size_t ghost_capacity)
    : probation_capacity_(probation_capacity),
      main_(main_capacity, /*bits=*/2),
      ghost_(ghost_capacity) {}

bool RefQdLpFifo::Access(ObjectId id) {
  // 1. Probation hit: set the accessed bit, nothing moves.
  for (auto& [entry_id, accessed] : probation_) {
    if (entry_id == id) {
      accessed = true;
      return true;
    }
  }
  // 2. Main hit: the CLOCK model bumps its counter.
  if (main_.Contains(id)) {
    return main_.Access(id);
  }
  // 3. Ghost hit: consume and admit straight into main (still a miss).
  if (ghost_.Consume(id)) {
    main_.Access(id);
    ++counters_.ghost_hits;
    return false;
  }
  // 4. Cold miss: probation.
  while (probation_.size() >= probation_capacity_) {
    EvictProbation();
  }
  probation_.emplace_back(id, false);
  return false;
}

void RefQdLpFifo::EvictProbation() {
  auto [victim, accessed] = probation_.front();
  probation_.pop_front();
  if (accessed) {
    main_.Access(victim);  // lazy promotion
    ++counters_.promotions;
  } else {
    ghost_.Insert(victim);  // quick demotion
    ++counters_.evictions;
    ++counters_.demotions;
  }
}

bool RefQdLpFifo::Remove(ObjectId id) {
  for (auto it = probation_.begin(); it != probation_.end(); ++it) {
    if (it->first == id) {
      probation_.erase(it);
      ++counters_.evictions;
      return true;
    }
  }
  if (main_.Remove(id)) {
    ++counters_.evictions;
    return true;
  }
  return false;
}

bool RefQdLpFifo::Contains(ObjectId id) const {
  return std::any_of(probation_.begin(), probation_.end(),
                     [&](const auto& e) { return e.first == id; }) ||
         main_.Contains(id);
}

// ---------------------------------------------------------------------------
// MakeExactOracle

std::unique_ptr<ReferenceModel> MakeExactOracle(const std::string& name,
                                                size_t capacity) {
  if (name == "fifo") {
    return std::make_unique<RefFifo>(capacity);
  }
  if (name == "lru") {
    return std::make_unique<RefLru>(capacity);
  }
  if (name == "lfu") {
    return std::make_unique<RefLfu>(capacity);
  }
  if (name == "fifo-reinsertion" || name == "clock" || name == "clock1") {
    return std::make_unique<RefClock>(capacity, 1);
  }
  if (name == "clock2") {
    return std::make_unique<RefClock>(capacity, 2);
  }
  if (name == "clock3") {
    return std::make_unique<RefClock>(capacity, 3);
  }
  if (name == "sieve") {
    return std::make_unique<RefSieve>(capacity);
  }
  if (name == "s3fifo") {
    // S3FifoPolicy defaults: small_fraction 0.10, ghost_factor 0.9.
    return std::make_unique<RefS3Fifo>(capacity, 0.10, 0.9);
  }
  if (name == "qd-lp-fifo") {
    // Reproduce MakeQdPolicy's split: 10% probation (at least 1, at most
    // capacity - 1), the rest main, ghost = main * ghost_factor (1.0).
    const size_t probation =
        std::min(ScaledCapacity(capacity, 0.10), capacity - 1);
    const size_t main_capacity = capacity - probation;
    const size_t ghost = ScaledCapacity(main_capacity, 1.0);
    return std::make_unique<RefQdLpFifo>(probation, main_capacity, ghost);
  }
  return nullptr;
}

}  // namespace oracle
}  // namespace qdlp
