// SlabStore unit tests: the seqlock cell protocol, the per-domain buddy
// allocator, TTL laziness, and the accounting invariants.

#include "src/store/slab_store.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/random.h"

namespace qdlp {
namespace {

std::string ValueFor(uint64_t id, uint64_t version) {
  std::string value = "v" + std::to_string(id) + "." + std::to_string(version);
  // Stretch across word boundaries so torn-copy detection has material.
  value.append(id % 37, static_cast<char>('a' + id % 26));
  return value;
}

TEST(SlabStoreTest, CommitReadRoundTrip) {
  SlabStore store(/*num_cells=*/8, /*num_domains=*/1,
                  /*arena_bytes_per_domain=*/4096, /*max_value_len=*/256);
  const std::string value = "hello, qdlpd";
  const SlabStore::ChunkRef chunk = store.Allocate(0, value.size());
  ASSERT_NE(chunk, SlabStore::kNullChunk);
  store.WriteChunk(chunk, value.data(), value.size());
  EXPECT_EQ(store.Commit(/*cell=*/3, /*id=*/42, chunk, /*expiry_s=*/0),
            SlabStore::kNullChunk);

  std::string out;
  EXPECT_EQ(store.Read(3, 42, /*now_s=*/100, &out),
            SlabStore::ReadResult::kHit);
  EXPECT_EQ(out, value);
  EXPECT_EQ(store.live_value_bytes(), value.size());
  store.CheckInvariants();
}

TEST(SlabStoreTest, EmptyValueRoundTrips) {
  SlabStore store(4, 1, 1024, 64);
  const SlabStore::ChunkRef chunk = store.Allocate(0, 0);
  ASSERT_NE(chunk, SlabStore::kNullChunk);
  store.Commit(0, 7, chunk, 0);
  // Read appends: a zero-length hit adds nothing behind the caller's bytes.
  std::string out = "sentinel";
  EXPECT_EQ(store.Read(0, 7, 0, &out), SlabStore::ReadResult::kHit);
  EXPECT_EQ(out, "sentinel");
  out.clear();
  EXPECT_EQ(store.Read(0, 7, 0, &out), SlabStore::ReadResult::kHit);
  EXPECT_TRUE(out.empty());
  store.CheckInvariants();
}

TEST(SlabStoreTest, ReadAppendsBehindPrefix) {
  SlabStore store(4, 1, 1 << 16, 4096);
  const std::string prefix = "0123456789abcdef-header";
  for (const size_t len : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                           size_t{63}, size_t{64}, size_t{65}, size_t{4096}}) {
    std::string value(len, '\0');
    for (size_t i = 0; i < len; ++i) {
      value[i] = static_cast<char>('A' + (i * 7 + len) % 53);
    }
    const SlabStore::ChunkRef chunk = store.Allocate(0, len);
    ASSERT_NE(chunk, SlabStore::kNullChunk);
    store.WriteChunk(chunk, value.data(), len);
    store.FreeChunk(store.Commit(1, 77, chunk, 0));
    std::string out = prefix;
    ASSERT_EQ(store.Read(1, 77, 0, &out), SlabStore::ReadResult::kHit);
    EXPECT_EQ(out, prefix + value) << len;
    // A second read stacks behind the first.
    ASSERT_EQ(store.Read(1, 77, 0, &out), SlabStore::ReadResult::kHit);
    EXPECT_EQ(out, prefix + value + value) << len;
  }
  store.CheckInvariants();
}

TEST(SlabStoreTest, NonHitReadsLeaveOutUnchanged) {
  SlabStore store(4, 1, 1024, 64);
  const SlabStore::ChunkRef chunk = store.Allocate(0, 5);
  store.WriteChunk(chunk, "bytes", 5);
  store.Commit(0, 31, chunk, /*expiry_s=*/100);
  store.Commit(1, 32, SlabStore::kNullChunk, 0);
  const std::string prefix = "kept-prefix";
  std::string out = prefix;
  EXPECT_EQ(store.Read(0, 99, 0, &out), SlabStore::ReadResult::kStale);
  EXPECT_EQ(out, prefix);
  EXPECT_EQ(store.Read(2, 31, 0, &out), SlabStore::ReadResult::kStale);
  EXPECT_EQ(out, prefix);
  EXPECT_EQ(store.Read(1, 32, 0, &out), SlabStore::ReadResult::kNoValue);
  EXPECT_EQ(out, prefix);
  EXPECT_EQ(store.Read(0, 31, /*now_s=*/100, &out),
            SlabStore::ReadResult::kExpired);
  EXPECT_EQ(out, prefix);
  // The same calls on an empty string leave it empty.
  std::string empty;
  EXPECT_EQ(store.Read(1, 32, 0, &empty), SlabStore::ReadResult::kNoValue);
  EXPECT_EQ(store.Read(0, 31, 100, &empty), SlabStore::ReadResult::kExpired);
  EXPECT_TRUE(empty.empty());
  // The hints never change an outcome, including on out-of-range cells.
  store.PrefetchCell(0);
  store.PrefetchValue(0);
  store.PrefetchCell(1000);
  store.PrefetchValue(1000);
  EXPECT_EQ(store.Read(0, 31, 99, &out), SlabStore::ReadResult::kHit);
  EXPECT_EQ(out, prefix + "bytes");
}

TEST(SlabStoreTest, OwnershipStampReadsAsNoValue) {
  SlabStore store(4, 1, 1024, 64);
  // The cache stamps (id, kNullChunk) at metadata-only admission.
  EXPECT_EQ(store.Commit(1, 9, SlabStore::kNullChunk, 0),
            SlabStore::kNullChunk);
  std::string out;
  EXPECT_EQ(store.Read(1, 9, 0, &out), SlabStore::ReadResult::kNoValue);
  EXPECT_EQ(store.Read(1, 8, 0, &out), SlabStore::ReadResult::kStale);
}

TEST(SlabStoreTest, WrongIdIsStale) {
  SlabStore store(4, 1, 1024, 64);
  const SlabStore::ChunkRef chunk = store.Allocate(0, 3);
  store.WriteChunk(chunk, "abc", 3);
  store.Commit(2, 5, chunk, 0);
  std::string out;
  EXPECT_EQ(store.Read(2, 6, 0, &out), SlabStore::ReadResult::kStale);
  // An empty (never-stamped) cell is stale for every id.
  EXPECT_EQ(store.Read(0, 5, 0, &out), SlabStore::ReadResult::kStale);
}

TEST(SlabStoreTest, TtlIsLazyAndAbsolute) {
  SlabStore store(4, 1, 1024, 64);
  const SlabStore::ChunkRef chunk = store.Allocate(0, 4);
  store.WriteChunk(chunk, "ttlv", 4);
  store.Commit(0, 11, chunk, /*expiry_s=*/100);
  std::string out;
  EXPECT_EQ(store.Read(0, 11, /*now_s=*/99, &out),
            SlabStore::ReadResult::kHit);
  EXPECT_EQ(out, "ttlv");
  EXPECT_EQ(store.Read(0, 11, /*now_s=*/100, &out),
            SlabStore::ReadResult::kExpired);
  EXPECT_EQ(store.Read(0, 11, /*now_s=*/5000, &out),
            SlabStore::ReadResult::kExpired);
  // expiry 0 = never expires.
  const SlabStore::ChunkRef forever = store.Allocate(0, 1);
  store.WriteChunk(forever, "x", 1);
  store.Commit(1, 12, forever, 0);
  EXPECT_EQ(store.Read(1, 12, ~0ull, &out), SlabStore::ReadResult::kHit);
}

TEST(SlabStoreTest, CommitReplacesAndReturnsOldChunk) {
  SlabStore store(4, 1, 1024, 64);
  const SlabStore::ChunkRef first = store.Allocate(0, 5);
  store.WriteChunk(first, "first", 5);
  store.Commit(0, 3, first, 0);
  const SlabStore::ChunkRef second = store.Allocate(0, 6);
  store.WriteChunk(second, "second", 6);
  EXPECT_EQ(store.Commit(0, 3, second, 0), first);
  store.FreeChunk(first);
  std::string out;
  EXPECT_EQ(store.Read(0, 3, 0, &out), SlabStore::ReadResult::kHit);
  EXPECT_EQ(out, "second");
  EXPECT_EQ(store.live_value_bytes(), 6u);
  store.CheckInvariants();
}

TEST(SlabStoreTest, MoveCellCarriesValueAndExpiry) {
  SlabStore store(8, 1, 1024, 64);
  const SlabStore::ChunkRef chunk = store.Allocate(0, 5);
  store.WriteChunk(chunk, "moved", 5);
  store.Commit(1, 21, chunk, /*expiry_s=*/500);
  store.MoveCell(/*from=*/1, /*to=*/6);
  std::string out;
  EXPECT_EQ(store.Read(1, 21, 0, &out), SlabStore::ReadResult::kStale);
  EXPECT_EQ(store.Read(6, 21, /*now_s=*/499, &out),
            SlabStore::ReadResult::kHit);
  EXPECT_EQ(out, "moved");
  EXPECT_EQ(store.Read(6, 21, /*now_s=*/500, &out),
            SlabStore::ReadResult::kExpired);
  store.CheckInvariants();
}

TEST(SlabStoreTest, ClearCellFreesForReuse) {
  SlabStore store(4, 1, /*arena_bytes_per_domain=*/256, 64);
  const SlabStore::ChunkRef chunk = store.Allocate(0, 32);
  ASSERT_NE(chunk, SlabStore::kNullChunk);
  store.WriteChunk(chunk, "0123456789abcdef0123456789abcdef", 32);
  store.Commit(0, 1, chunk, 0);
  EXPECT_EQ(store.ClearCell(0), chunk);
  store.FreeChunk(chunk);
  EXPECT_EQ(store.live_value_bytes(), 0u);
  std::string out;
  EXPECT_EQ(store.Read(0, 1, 0, &out), SlabStore::ReadResult::kStale);
  // The freed chunk is recycled for an equal-class allocation.
  EXPECT_EQ(store.Allocate(0, 32), chunk);
  store.CheckInvariants();
}

TEST(SlabStoreTest, ExhaustionReturnsNullUntilFreed) {
  // Tiny arena: 64 bytes = 8 words; word 0 is the sentinel.
  SlabStore store(4, 1, 64, 32);
  const SlabStore::ChunkRef a = store.Allocate(0, 16);  // 2 words
  const SlabStore::ChunkRef b = store.Allocate(0, 16);
  ASSERT_NE(a, SlabStore::kNullChunk);
  ASSERT_NE(b, SlabStore::kNullChunk);
  // 5 words left at most; a 4-word request may still fit, a 5th 2-worder
  // eventually fails.
  std::vector<SlabStore::ChunkRef> rest;
  SlabStore::ChunkRef c;
  while ((c = store.Allocate(0, 16)) != SlabStore::kNullChunk) {
    rest.push_back(c);
    ASSERT_LE(rest.size(), 8u);
  }
  EXPECT_EQ(store.Allocate(0, 16), SlabStore::kNullChunk);
  store.FreeChunk(a);
  EXPECT_NE(store.Allocate(0, 16), SlabStore::kNullChunk);
  // Values beyond max_value_len are rejected outright.
  EXPECT_EQ(store.Allocate(0, 33), SlabStore::kNullChunk);
}

TEST(SlabStoreTest, BuddySplitServesSmallFromLargeFreed) {
  SlabStore store(4, 1, 1024, 512);
  const SlabStore::ChunkRef big = store.Allocate(0, 256);  // 32 words
  ASSERT_NE(big, SlabStore::kNullChunk);
  // Consume the remaining bump space so splitting is the only source.
  std::vector<SlabStore::ChunkRef> filler;
  SlabStore::ChunkRef c;
  while ((c = store.Allocate(0, 256)) != SlabStore::kNullChunk) {
    filler.push_back(c);
  }
  while ((c = store.Allocate(0, 8)) != SlabStore::kNullChunk) {
    filler.push_back(c);
  }
  store.FreeChunk(big);
  // The freed 32-word chunk must satisfy several small requests by
  // buddy-splitting.
  int small = 0;
  while (store.Allocate(0, 8) != SlabStore::kNullChunk) {
    ++small;
    ASSERT_LE(small, 32);
  }
  EXPECT_GE(small, 8);  // 32 words -> at least 8 one-word-class chunks
}

TEST(SlabStoreTest, CoalescingRebuildsMaxChunkAfterSmallChurn) {
  // Regression for permanent fragmentation: once the bump pointer is
  // exhausted and the arena has been carved into one-word chunks, freeing
  // them must merge buddies back up so a maximum-size value fits again.
  SlabStore store(/*num_cells=*/4, /*num_domains=*/1,
                  /*arena_bytes_per_domain=*/4096, /*max_value_len=*/2048);
  std::vector<SlabStore::ChunkRef> small;
  SlabStore::ChunkRef c;
  while ((c = store.Allocate(0, 8)) != SlabStore::kNullChunk) {
    small.push_back(c);
    ASSERT_LE(small.size(), 512u);
  }
  ASSERT_GT(small.size(), 100u);
  EXPECT_EQ(store.Allocate(0, 2048), SlabStore::kNullChunk);
  for (const SlabStore::ChunkRef chunk : small) {
    store.FreeChunk(chunk);
  }
  store.CheckInvariants();
  // Fully coalesced: the max-size class allocates again.
  EXPECT_NE(store.Allocate(0, 2048), SlabStore::kNullChunk);
  store.CheckInvariants();
}

TEST(SlabStoreTest, CoalescingSurvivesOutOfOrderFrees) {
  // Same recovery property with frees interleaved across the arena in a
  // shuffled order — merge correctness must not depend on free order.
  SlabStore store(4, 1, 4096, 2048);
  std::vector<SlabStore::ChunkRef> chunks;
  SlabStore::ChunkRef c;
  while ((c = store.Allocate(0, 24)) != SlabStore::kNullChunk) {
    chunks.push_back(c);
  }
  ASSERT_GT(chunks.size(), 30u);
  Rng rng(0xC0A1E5CEull);
  for (size_t i = chunks.size(); i > 1; --i) {
    std::swap(chunks[i - 1], chunks[rng.NextBounded(i)]);
  }
  for (const SlabStore::ChunkRef chunk : chunks) {
    store.FreeChunk(chunk);
    store.CheckInvariants();
  }
  EXPECT_NE(store.Allocate(0, 2048), SlabStore::kNullChunk);
}

TEST(SlabStoreTest, PerDomainArenasAreIndependent) {
  SlabStore store(8, /*num_domains=*/2, 64, 32);
  // Exhaust domain 0.
  while (store.Allocate(0, 16) != SlabStore::kNullChunk) {
  }
  // Domain 1 is untouched.
  EXPECT_NE(store.Allocate(1, 16), SlabStore::kNullChunk);
  store.CheckInvariants();
}

// Randomized churn against a shadow map: every committed cell must read
// back exactly its latest value, live-byte accounting must track the
// shadow, and the structural invariants must hold throughout.
TEST(SlabStoreTest, RandomizedChurnMatchesShadow) {
  constexpr size_t kCells = 32;
  SlabStore store(kCells, /*num_domains=*/2,
                  /*arena_bytes_per_domain=*/8192, /*max_value_len=*/200);
  Rng rng(0x51ab5107eull);
  struct Shadow {
    uint64_t id = 0;
    std::string value;
    bool committed = false;
    SlabStore::ChunkRef chunk = SlabStore::kNullChunk;
  };
  std::vector<Shadow> shadow(kCells);
  uint64_t next_version = 0;
  for (int step = 0; step < 5000; ++step) {
    const uint32_t cell = static_cast<uint32_t>(rng.NextBounded(kCells));
    const size_t domain = rng.NextBounded(2);
    const int op = static_cast<int>(rng.NextBounded(3));
    if (op == 0) {
      // Commit a fresh value (evicting the arena by freeing on failure).
      const uint64_t id = 1 + rng.NextBounded(64);
      const std::string value = ValueFor(id, ++next_version);
      const SlabStore::ChunkRef chunk = store.Allocate(domain, value.size());
      if (chunk == SlabStore::kNullChunk) {
        continue;  // arena pressure this round; churn continues
      }
      store.WriteChunk(chunk, value.data(), value.size());
      store.FreeChunk(store.Commit(cell, id, chunk, 0));
      shadow[cell] = {id, value, true, chunk};
    } else if (op == 1 && shadow[cell].committed) {
      store.FreeChunk(store.ClearCell(cell));
      shadow[cell] = Shadow{};
    } else if (op == 2 && shadow[cell].committed) {
      const uint32_t to = static_cast<uint32_t>(rng.NextBounded(kCells));
      if (to == cell || shadow[to].committed) {
        continue;
      }
      store.MoveCell(cell, to);
      shadow[to] = shadow[cell];
      shadow[cell] = Shadow{};
    }
    if (step % 257 == 0) {
      store.CheckInvariants();
    }
  }
  size_t live_bytes = 0;
  for (uint32_t cell = 0; cell < kCells; ++cell) {
    std::string out;
    if (shadow[cell].committed) {
      ASSERT_EQ(store.Read(cell, shadow[cell].id, 0, &out),
                SlabStore::ReadResult::kHit)
          << cell;
      EXPECT_EQ(out, shadow[cell].value) << cell;
      live_bytes += shadow[cell].value.size();
    } else {
      EXPECT_EQ(store.Read(cell, 1, 0, &out), SlabStore::ReadResult::kStale)
          << cell;
    }
  }
  EXPECT_EQ(store.live_value_bytes(), live_bytes);
  store.CheckInvariants();
}

}  // namespace
}  // namespace qdlp
