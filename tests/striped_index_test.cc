// StripedAtomicIndex: single-writer semantics, differential testing against
// FlatMap, and lock-free-reader stress (a data-race hunting ground for the
// tsan preset; see docs/TESTING.md).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/concurrent/striped_index.h"
#include "src/util/flat_map.h"
#include "src/util/random.h"

namespace qdlp {
namespace {

TEST(StripedIndexTest, InsertFindEraseBasics) {
  StripedAtomicIndex index(/*max_entries=*/64, /*num_stripes=*/4);
  uint32_t value = 0;
  EXPECT_FALSE(index.Find(7, &value));
  EXPECT_EQ(index.size(), 0u);

  index.Insert(7, 70);
  index.Insert(8, 80);
  EXPECT_EQ(index.size(), 2u);
  ASSERT_TRUE(index.Find(7, &value));
  EXPECT_EQ(value, 70u);
  ASSERT_TRUE(index.Find(8, &value));
  EXPECT_EQ(value, 80u);
  EXPECT_TRUE(index.Contains(7));
  EXPECT_FALSE(index.Contains(9));

  EXPECT_TRUE(index.Erase(7));
  EXPECT_FALSE(index.Erase(7));
  EXPECT_FALSE(index.Find(7, &value));
  EXPECT_EQ(index.size(), 1u);
  index.CheckInvariants();
}

TEST(StripedIndexTest, ReservedSentinelKeysAreRejectedSafely) {
  // kEmptyKey and kTombstoneKey are slot encodings, not storable keys.
  // Lookups and erases with them must be safe no-ops even in release
  // builds — a hostile wire key must never read or free a sentinel slot.
  StripedAtomicIndex index(/*max_entries=*/64, /*num_stripes=*/4);
  index.Insert(1, 10);
  index.Insert(2, 20);
  uint32_t value = 0;
  EXPECT_FALSE(index.Find(StripedAtomicIndex::kEmptyKey, &value));
  EXPECT_FALSE(index.Find(StripedAtomicIndex::kTombstoneKey, &value));
  EXPECT_FALSE(index.Contains(StripedAtomicIndex::kEmptyKey));
  EXPECT_FALSE(index.Contains(StripedAtomicIndex::kTombstoneKey));
  EXPECT_FALSE(index.Erase(StripedAtomicIndex::kEmptyKey));
  EXPECT_FALSE(index.Erase(StripedAtomicIndex::kTombstoneKey));
  // The probes above disturbed nothing: live entries and size are intact.
  EXPECT_EQ(index.size(), 2u);
  ASSERT_TRUE(index.Find(1, &value));
  EXPECT_EQ(value, 10u);
  ASSERT_TRUE(index.Find(2, &value));
  EXPECT_EQ(value, 20u);
  index.CheckInvariants();
}

TEST(StripedIndexTest, ForEachVisitsEveryLiveEntryOnce) {
  StripedAtomicIndex index(/*max_entries=*/128, /*num_stripes=*/8);
  for (ObjectId id = 0; id < 100; ++id) {
    index.Insert(id, static_cast<uint32_t>(id * 3));
  }
  for (ObjectId id = 0; id < 100; id += 2) {
    EXPECT_TRUE(index.Erase(id));
  }
  std::unordered_map<ObjectId, uint32_t> seen;
  index.ForEach([&](ObjectId id, uint32_t value) {
    EXPECT_TRUE(seen.emplace(id, value).second) << "duplicate id " << id;
  });
  EXPECT_EQ(seen.size(), 50u);
  for (const auto& [id, value] : seen) {
    EXPECT_EQ(id % 2, 1u);
    EXPECT_EQ(value, static_cast<uint32_t>(id * 3));
  }
}

// Differential: random insert/erase/find churn must agree with FlatMap at
// every step. Keys are drawn from a small universe so tombstone reuse,
// pruning, and same-size rebuilds all trigger.
TEST(StripedIndexTest, ChurnMatchesFlatMap) {
  StripedAtomicIndex index(/*max_entries=*/200, /*num_stripes=*/4);
  FlatMap<uint32_t> model;
  Rng rng(12345);
  constexpr uint64_t kUniverse = 300;
  for (int step = 0; step < 60000; ++step) {
    const ObjectId id = rng.NextBounded(kUniverse);
    const uint32_t roll = static_cast<uint32_t>(rng.NextBounded(100));
    if (roll < 45) {
      // Insert if absent (mirrors the caches: Insert requires absence).
      if (!model.Contains(id)) {
        const uint32_t value = static_cast<uint32_t>(step);
        index.Insert(id, value);
        *model.Emplace(id).first = value;
      }
    } else if (roll < 80) {
      const bool erased_model = model.Erase(id);
      EXPECT_EQ(index.Erase(id), erased_model);
    } else {
      uint32_t value;
      const uint32_t* expected = model.Find(id);
      ASSERT_EQ(index.Find(id, &value), expected != nullptr);
      if (expected != nullptr) {
        EXPECT_EQ(value, *expected);
      }
    }
    if (step % 512 == 0) {
      index.CheckInvariants();
      EXPECT_EQ(index.size(), model.size());
      for (ObjectId probe = 0; probe < kUniverse; ++probe) {
        uint32_t value;
        const uint32_t* expected = model.Find(probe);
        ASSERT_EQ(index.Find(probe, &value), expected != nullptr);
        if (expected != nullptr) {
          EXPECT_EQ(value, *expected);
        }
      }
    }
  }
  index.CheckInvariants();
}

// Growth: inserting far past the construction hint must still work (stripes
// rebuild/double under the seqlock) and keep every entry findable.
TEST(StripedIndexTest, GrowsBeyondConstructionHint) {
  StripedAtomicIndex index(/*max_entries=*/16, /*num_stripes=*/2);
  constexpr ObjectId kCount = 5000;
  for (ObjectId id = 0; id < kCount; ++id) {
    index.Insert(id, static_cast<uint32_t>(id + 1));
  }
  EXPECT_EQ(index.size(), kCount);
  for (ObjectId id = 0; id < kCount; ++id) {
    uint32_t value;
    ASSERT_TRUE(index.Find(id, &value)) << id;
    EXPECT_EQ(value, static_cast<uint32_t>(id + 1));
  }
  index.CheckInvariants();
  EXPECT_GT(index.MemoryBytes(), 0u);
}

// Lock-free readers vs one mutating writer. The writer maintains the
// self-certifying mapping value == f(id), so any torn/stale read a reader
// could observe would break the equality; under TSan this is also the
// data-race probe for the seqlock + release/acquire slot protocol.
TEST(StripedIndexTest, ReadersNeverSeeTornValuesUnderChurn) {
  StripedAtomicIndex index(/*max_entries=*/256, /*num_stripes=*/4);
  constexpr uint64_t kUniverse = 512;
  const auto value_of = [](ObjectId id) {
    return static_cast<uint32_t>(id * 2654435761u + 17);
  };
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_hits{0};
  std::atomic<bool> torn{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(77 + static_cast<uint64_t>(t));
      uint64_t hits = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const ObjectId id = rng.NextBounded(kUniverse);
        uint32_t value;
        if (index.Find(id, &value)) {
          ++hits;
          if (value != value_of(id)) {
            torn.store(true, std::memory_order_relaxed);
          }
        }
      }
      reader_hits.fetch_add(hits, std::memory_order_relaxed);
    });
  }

  Rng rng(99);
  FlatMap<uint32_t> present;
  for (int step = 0; step < 200000; ++step) {
    const ObjectId id = rng.NextBounded(kUniverse);
    if (present.Contains(id)) {
      present.Erase(id);
      index.Erase(id);
    } else {
      *present.Emplace(id).first = 1;
      index.Insert(id, value_of(id));
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : readers) {
    thread.join();
  }
  EXPECT_FALSE(torn.load());
  EXPECT_GT(reader_hits.load(), 0u);
  index.CheckInvariants();
}

}  // namespace
}  // namespace qdlp
