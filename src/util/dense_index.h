// Direct-indexed policy index over a dense id universe.
//
// When a trace has been remapped to dense u32 ids (src/trace/dense_trace),
// the id space is exactly [0, num_objects), so the open-addressing probe of
// FlatMap collapses to one array access: slot = slots_[id]. No hashing, no
// probe chain, no tombstones — the whole index is a flat array of Values of
// the universe size, one cache line touched per lookup (same as FlatMap's
// best case and strictly better than its miss case).
//
// A slot is exactly sizeof(Value): there is no separate presence flag.
// Each value type instead reserves one of its own values to mean "no
// entry" (DenseAbsent below) — integers their maximum, the policies' entry
// structs a null list slot. A u32 slot index therefore costs 4 bytes per
// universe id, not 8.
//
// DenseIndex implements the subset of the FlatMap API the policies use
// (Find/Emplace/Erase/Contains/Reserve/CheckInvariants/MemoryBytes/
// Prefetch), so the core policies can be instantiated against either
// backing through an index factory (below). Memory is O(universe) per
// instance rather than O(capacity): the sweep engines only select this
// backing when the universe is small enough for that to be a win
// (kMaxDenseUniverse, src/sim/batch_replay.h).

#ifndef QDLP_SRC_UTIL_DENSE_INDEX_H_
#define QDLP_SRC_UTIL_DENSE_INDEX_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/flat_map.h"
#include "src/util/prefetch.h"

namespace qdlp {

// The reserved "no entry" value of a DenseIndex slot. Entry structs
// declare it themselves, as `static Value DenseAbsent()` plus
// `bool IsDenseAbsent() const`; integers reserve their maximum. Value{}
// must never be the absent value (Emplace writes it), and a policy must
// never store the absent value into a live entry.
template <typename Value>
struct DenseAbsent {
  static Value Make() { return Value::DenseAbsent(); }
  static bool Is(const Value& value) { return value.IsDenseAbsent(); }
};

template <std::integral Value>
struct DenseAbsent<Value> {
  static constexpr Value Make() { return std::numeric_limits<Value>::max(); }
  static constexpr bool Is(Value value) { return value == Make(); }
};

template <typename Value>
class DenseIndex {
 public:
  using Key = uint64_t;

  // Keys must lie in [0, universe). A universe of 0 is a valid degenerate
  // index that holds nothing (every Find misses, Emplace is illegal).
  explicit DenseIndex(uint64_t universe)
      : slots_(universe, Absent::Make()) {
    QDLP_CHECK(!Absent::Is(Value{}));
  }

  // FlatMap-compatibility no-op: the slot array is always universe-sized.
  void Reserve(size_t n) { (void)n; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Contains(Key key) const {
    return key < slots_.size() && !Absent::Is(slots_[key]);
  }

  // Pointer to the mapped value, or nullptr. Unlike FlatMap, pointers stay
  // valid across inserts (the slot array never reallocates).
  Value* Find(Key key) {
    QDLP_DCHECK(key < slots_.size());
    Value& slot = slots_[key];
    return Absent::Is(slot) ? nullptr : &slot;
  }
  const Value* Find(Key key) const {
    QDLP_DCHECK(key < slots_.size());
    const Value& slot = slots_[key];
    return Absent::Is(slot) ? nullptr : &slot;
  }

  // Find-or-insert: returns the mapped value (default constructed when
  // absent) and whether it was inserted.
  std::pair<Value*, bool> Emplace(Key key) {
    QDLP_DCHECK(key < slots_.size());
    Value& slot = slots_[key];
    if (!Absent::Is(slot)) {
      return {&slot, false};
    }
    slot = Value{};
    ++size_;
    return {&slot, true};
  }

  Value& operator[](Key key) { return *Emplace(key).first; }

  bool Erase(Key key) {
    QDLP_DCHECK(key < slots_.size());
    Value& slot = slots_[key];
    if (Absent::Is(slot)) {
      return false;
    }
    slot = Absent::Make();
    --size_;
    return true;
  }

  void Clear() {
    size_ = 0;
    for (Value& slot : slots_) {
      slot = Absent::Make();
    }
  }

  // Visits entries as fn(Key, const Value&), in id order. O(universe).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t key = 0; key < slots_.size(); ++key) {
      if (!Absent::Is(slots_[key])) {
        fn(static_cast<Key>(key), slots_[key]);
      }
    }
  }

  // Pulls the slot of `key` toward the cache ahead of its lookup; the
  // batched replay pipeline issues this kBatchPrefetchDepth requests early.
  void Prefetch(Key key) const {
    if (key < slots_.size()) {
      PrefetchForRead(&slots_[key]);
    }
  }

  // Non-absent slots match the size counter. O(universe).
  void CheckInvariants() const {
    size_t present = 0;
    for (const Value& slot : slots_) {
      if (!Absent::Is(slot)) {
        ++present;
      }
    }
    QDLP_CHECK(present == size_);
  }

  // Bytes held by the slot array (bench bytes/object accounting): exactly
  // universe * sizeof(Value) — the price of probe-free lookups.
  size_t MemoryBytes() const { return slots_.capacity() * sizeof(Value); }

 private:
  using Absent = DenseAbsent<Value>;

  std::vector<Value> slots_;
  size_t size_ = 0;
};

// Index factories: the core policies are templates over one of these, so a
// single policy implementation serves both the general-purpose flat-map
// backing (arbitrary u64 ids) and the dense fast path (remapped traces).
// A factory builds every index a policy needs (value types differ between
// e.g. the FIFO slot index and the S3-FIFO entry index) from one shared
// configuration.

struct FlatIndexFactory {
  template <typename Value>
  using Index = FlatMap<Value>;

  template <typename Value>
  FlatMap<Value> Make() const {
    return FlatMap<Value>();
  }
};

struct DenseIndexFactory {
  // All ids fed to the policy must lie in [0, universe).
  uint64_t universe = 0;

  template <typename Value>
  using Index = DenseIndex<Value>;

  template <typename Value>
  DenseIndex<Value> Make() const {
    return DenseIndex<Value>(universe);
  }
};

}  // namespace qdlp

#endif  // QDLP_SRC_UTIL_DENSE_INDEX_H_
