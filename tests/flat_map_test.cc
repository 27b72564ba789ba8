// FlatMap: the open-addressing std::unordered_map replacement under the
// policy indexes. Unit tests pin tombstone reuse, the Emplace pointer
// contract, and growth; the property test runs randomized op sequences
// against std::unordered_map as the reference model.

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/util/flat_map.h"
#include "src/util/random.h"

namespace qdlp {
namespace {

TEST(FlatMapTest, StartsEmpty) {
  FlatMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(map.Contains(0));
  EXPECT_EQ(map.Find(42), nullptr);
  map.CheckInvariants();
}

TEST(FlatMapTest, InsertFindErase) {
  FlatMap<int> map;
  map[7] = 70;
  map[8] = 80;
  EXPECT_EQ(map.size(), 2u);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 70);
  EXPECT_EQ(*map.Find(8), 80);
  EXPECT_TRUE(map.Erase(7));
  EXPECT_FALSE(map.Erase(7));  // already gone
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_EQ(map.size(), 1u);
  map.CheckInvariants();
}

TEST(FlatMapTest, OperatorBracketDefaultConstructsOnce) {
  FlatMap<int> map;
  EXPECT_EQ(map[5], 0);  // default int
  map[5] = 99;
  EXPECT_EQ(map[5], 99);  // second lookup finds, does not reset
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMapTest, EmplaceReportsInsertedFlag) {
  FlatMap<int> map;
  const auto [first, inserted_first] = map.Emplace(11);
  EXPECT_TRUE(inserted_first);
  *first = 1;
  const auto [second, inserted_second] = map.Emplace(11);
  EXPECT_FALSE(inserted_second);
  EXPECT_EQ(*second, 1);
  EXPECT_EQ(map.size(), 1u);
}

// The emplace-first-then-evict miss path in FIFO/LRU/SIEVE depends on this:
// the newcomer's Value* must survive the victim's Erase.
TEST(FlatMapTest, EmplacePointerSurvivesEraseOfOtherKeys) {
  FlatMap<int> map;
  map.Reserve(128);
  for (uint64_t key = 0; key < 100; ++key) {
    map[key] = static_cast<int>(key);
  }
  const auto [value, inserted] = map.Emplace(1000);
  ASSERT_TRUE(inserted);
  for (uint64_t key = 0; key < 100; ++key) {
    ASSERT_TRUE(map.Erase(key));
  }
  *value = 123;  // still the slot for key 1000: full slots never move
  ASSERT_NE(map.Find(1000), nullptr);
  EXPECT_EQ(*map.Find(1000), 123);
  map.CheckInvariants();
}

TEST(FlatMapTest, TombstoneReuseKeepsTableFromGrowing) {
  FlatMap<int> map;
  map.Reserve(1000);
  for (uint64_t key = 0; key < 1000; ++key) {
    map[key] = 1;
  }
  const size_t bytes_at_highwater = map.MemoryBytes();
  // Cache-eviction churn: erase victim + insert newcomer, 100k rounds.
  // Slot recycling (tombstone reuse + erase-time pruning + same-size
  // cleanup rehash) must keep the table at its Reserve()d footprint.
  uint64_t oldest = 0;
  uint64_t next = 1000;
  for (int round = 0; round < 100000; ++round) {
    ASSERT_TRUE(map.Erase(oldest++));
    map[next++] = 1;
  }
  EXPECT_EQ(map.size(), 1000u);
  EXPECT_EQ(map.MemoryBytes(), bytes_at_highwater);
  map.CheckInvariants();
}

// The policies' eviction order: a miss emplaces the newcomer before
// evicting the victim, so a table Reserve()d for a power-of-two capacity
// transiently holds capacity + 1 entries. That extra entry must fit the
// reserved table, at the high-water mark and under churn.
TEST(FlatMapTest, ReserveAbsorbsOneEntryPastCapacity) {
  constexpr uint64_t kCapacity = 1 << 12;
  FlatMap<int> map;
  map.Reserve(kCapacity);
  const size_t reserved_bytes = map.MemoryBytes();
  for (uint64_t key = 0; key <= kCapacity; ++key) {
    map.Emplace(key);
  }
  EXPECT_EQ(map.size(), kCapacity + 1);
  EXPECT_EQ(map.MemoryBytes(), reserved_bytes);
  uint64_t oldest = 0;
  ASSERT_TRUE(map.Erase(oldest++));
  for (uint64_t next = kCapacity + 1; next < 100 * kCapacity; ++next) {
    map.Emplace(next);
    ASSERT_TRUE(map.Erase(oldest++));
  }
  EXPECT_EQ(map.MemoryBytes(), reserved_bytes);
  map.CheckInvariants();
}

TEST(FlatMapTest, GrowPreservesAllEntries) {
  FlatMap<uint64_t> map;  // no Reserve: force repeated doubling
  constexpr uint64_t kCount = 10000;
  for (uint64_t key = 0; key < kCount; ++key) {
    map[key * 2654435761ULL] = key;
  }
  EXPECT_EQ(map.size(), kCount);
  for (uint64_t key = 0; key < kCount; ++key) {
    const uint64_t* value = map.Find(key * 2654435761ULL);
    ASSERT_NE(value, nullptr) << "key " << key;
    EXPECT_EQ(*value, key);
  }
  map.CheckInvariants();
}

TEST(FlatMapTest, ClearEmptiesAndStaysUsable) {
  FlatMap<int> map;
  for (uint64_t key = 0; key < 100; ++key) {
    map[key] = 1;
  }
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(5), nullptr);
  map.CheckInvariants();
  map[5] = 50;
  EXPECT_EQ(*map.Find(5), 50);
}

TEST(FlatMapTest, ForEachVisitsEveryLiveEntryOnce) {
  FlatMap<int> map;
  for (uint64_t key = 10; key < 20; ++key) {
    map[key] = static_cast<int>(key) * 10;
  }
  map.Erase(13);
  std::unordered_map<uint64_t, int> seen;
  map.ForEach([&seen](uint64_t key, const int& value) {
    EXPECT_TRUE(seen.emplace(key, value).second) << "duplicate key " << key;
  });
  EXPECT_EQ(seen.size(), 9u);
  EXPECT_EQ(seen.count(13), 0u);
  EXPECT_EQ(seen.at(17), 170);
}

TEST(FlatMapTest, AdversarialCollidingKeys) {
  // Keys chosen to land in the same home bucket of a 16-slot table: the
  // probe chain, tombstone transitions, and pruning all run on one run.
  FlatMap<int> map;
  std::vector<uint64_t> colliding;
  const uint64_t target = FlatMapHash(1) & 15;
  for (uint64_t key = 0; colliding.size() < 8; ++key) {
    if ((FlatMapHash(key) & 15) == target) {
      colliding.push_back(key);
    }
  }
  for (const uint64_t key : colliding) {
    map[key] = static_cast<int>(key);
  }
  // Erase from the middle of the chain, then re-find everything else.
  ASSERT_TRUE(map.Erase(colliding[3]));
  ASSERT_TRUE(map.Erase(colliding[5]));
  for (size_t i = 0; i < colliding.size(); ++i) {
    if (i == 3 || i == 5) {
      EXPECT_EQ(map.Find(colliding[i]), nullptr);
    } else {
      ASSERT_NE(map.Find(colliding[i]), nullptr);
      EXPECT_EQ(*map.Find(colliding[i]), static_cast<int>(colliding[i]));
    }
  }
  // Reinsert through the tombstones.
  map[colliding[3]] = -3;
  EXPECT_EQ(*map.Find(colliding[3]), -3);
  map.CheckInvariants();
}

// Randomized differential test against std::unordered_map. Skewed key
// choice keeps hit/miss/re-insert paths all exercised.
TEST(FlatMapPropertyTest, MatchesUnorderedMapUnderRandomOps) {
  for (const uint64_t seed : {401ULL, 402ULL, 403ULL}) {
    Rng rng(seed);
    FlatMap<uint64_t> map;
    std::unordered_map<uint64_t, uint64_t> reference;
    for (int op = 0; op < 50000; ++op) {
      const uint64_t key = rng.NextBounded(512);  // small space: collisions
      const uint64_t choice = rng.NextBounded(100);
      if (choice < 50) {  // insert / overwrite
        const uint64_t value = rng.Next();
        map[key] = value;
        reference[key] = value;
      } else if (choice < 80) {  // erase
        EXPECT_EQ(map.Erase(key), reference.erase(key) > 0) << "key " << key;
      } else {  // lookup
        const auto it = reference.find(key);
        const uint64_t* found = map.Find(key);
        if (it == reference.end()) {
          EXPECT_EQ(found, nullptr) << "key " << key;
        } else {
          ASSERT_NE(found, nullptr) << "key " << key;
          EXPECT_EQ(*found, it->second);
        }
      }
      if (op % 1024 == 0) {
        map.CheckInvariants();
      }
    }
    map.CheckInvariants();
    ASSERT_EQ(map.size(), reference.size()) << "seed " << seed;
    size_t visited = 0;
    map.ForEach([&](uint64_t key, const uint64_t& value) {
      ++visited;
      const auto it = reference.find(key);
      ASSERT_NE(it, reference.end()) << "phantom key " << key;
      EXPECT_EQ(value, it->second);
    });
    EXPECT_EQ(visited, reference.size());
  }
}

TEST(FlatMapTest, PrefetchIsSafeOnAnyKey) {
  // Prefetch is a pure performance hint; the contract is only that it never
  // faults, present key or not, including on an empty table.
  FlatMap<int> map;
  map.Prefetch(0);
  map.Prefetch(~uint64_t{0});
  for (uint64_t key = 0; key < 100; ++key) {
    map[key] = static_cast<int>(key);
  }
  for (uint64_t key = 0; key < 200; ++key) {
    map.Prefetch(key);
  }
  map.CheckInvariants();
}

TEST(FlatMapTest, FindManyMatchesFind) {
  Rng rng(2024);
  FlatMap<uint64_t> map;
  for (int i = 0; i < 4096; ++i) {
    const uint64_t key = rng.NextBounded(8192);
    map[key] = key * 3;
  }
  // Query batch mixes hits and misses, shorter and longer than the
  // prefetch depth, in randomized order.
  for (const size_t batch : {size_t{1}, size_t{3}, size_t{64}, size_t{1000}}) {
    std::vector<uint64_t> keys(batch);
    for (size_t i = 0; i < batch; ++i) {
      keys[i] = rng.NextBounded(16384);
    }
    std::vector<uint64_t*> batched(batch, nullptr);
    map.FindMany(keys.data(), batch, batched.data());
    for (size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(batched[i], map.Find(keys[i])) << "batch " << batch
                                               << " index " << i;
    }
  }
}

}  // namespace
}  // namespace qdlp
