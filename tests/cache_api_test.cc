// Unified Cache API tests: MakeCache routing, adapter fidelity against the
// raw engines, the uniform Delete() oracle across every concurrent engine,
// and the value-storing qdlpd engine (bytes, TTLs, size limits).

#include "src/core/cache_api.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/core/policy_factory.h"
#include "src/policies/eviction_policy.h"
#include "src/trace/generators.h"

namespace qdlp {
namespace {

// Injectable TTL clock: CacheConfig::now_fn is a plain function pointer,
// so the fake steps a file-level atomic.
std::atomic<uint64_t> g_fake_now{0};
uint64_t FakeNow() { return g_fake_now.load(std::memory_order_relaxed); }

CacheConfig ValueConfig(size_t capacity) {
  CacheConfig config;
  config.policy = "concurrent-qdlp-fifo";
  config.capacity = capacity;
  config.num_stripes = 4;
  config.num_shards = 1;
  config.value_arena_bytes = 1 << 20;
  config.max_value_len = 4096;
  config.now_fn = &FakeNow;
  return config;
}

TEST(CacheApiTest, MakeCacheRoutesSerialPolicies) {
  CacheConfig config;
  config.policy = "lru";
  config.capacity = 64;
  std::unique_ptr<Cache> cache = MakeCache(config);
  ASSERT_NE(cache, nullptr);
  EXPECT_FALSE(cache->thread_safe());
  EXPECT_FALSE(cache->stores_values());
  EXPECT_EQ(cache->capacity(), 64u);
  EXPECT_FALSE(cache->GetOrAdmit(1));
  EXPECT_TRUE(cache->GetOrAdmit(1));
}

TEST(CacheApiTest, MakeCacheRoutesConcurrentEngines) {
  for (const char* name :
       {"concurrent-qdlp-fifo", "concurrent-clock", "concurrent-s3fifo",
        "global-lock-lru", "sharded-lru"}) {
    CacheConfig config;
    config.policy = name;
    config.capacity = 128;
    config.num_shards = 2;
    std::unique_ptr<Cache> cache = MakeCache(config);
    ASSERT_NE(cache, nullptr) << name;
    EXPECT_TRUE(cache->thread_safe()) << name;
    EXPECT_FALSE(cache->stores_values()) << name;
  }
}

TEST(CacheApiTest, MakeCacheRejectsBadConfigs) {
  CacheConfig config;
  config.capacity = 64;
  config.policy = "no-such-policy";
  EXPECT_EQ(MakeCache(config), nullptr);
  config.policy = "belady";  // requires a trace
  EXPECT_EQ(MakeCache(config), nullptr);
  // A value arena on anything but the qdlp engine is a config error.
  config.policy = "concurrent-clock";
  config.value_arena_bytes = 1 << 20;
  EXPECT_EQ(MakeCache(config), nullptr);
  config.policy = "lru";
  EXPECT_EQ(MakeCache(config), nullptr);
}

TEST(CacheApiTest, MakeCacheRoutesValueEngine) {
  std::unique_ptr<Cache> cache = MakeCache(ValueConfig(100));
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->thread_safe());
  EXPECT_TRUE(cache->stores_values());
}

// The serial adapter must be a transparent shim: replaying a trace through
// Cache::GetOrAdmit gives bit-identical hits and stats to driving the raw
// EvictionPolicy directly.
TEST(CacheApiTest, SerialAdapterMatchesRawPolicy) {
  ZipfTraceConfig trace_config;
  trace_config.num_requests = 20000;
  trace_config.num_objects = 2000;
  trace_config.seed = 7;
  const Trace trace = GenerateZipf(trace_config);
  for (const char* name : {"lru", "s3fifo", "qd-lp-fifo", "sieve"}) {
    CacheConfig config;
    config.policy = name;
    config.capacity = 200;
    std::unique_ptr<Cache> cache = MakeCache(config);
    ASSERT_NE(cache, nullptr) << name;
    std::unique_ptr<EvictionPolicy> raw = MakePolicy(name, 200);
    ASSERT_NE(raw, nullptr) << name;
    uint64_t raw_hits = 0;
    for (const ObjectId id : trace.requests) {
      raw_hits += raw->Access(id) ? 1 : 0;
    }
    const uint64_t api_hits = ReplayTrace(*cache, trace.requests);
    EXPECT_EQ(api_hits, raw_hits) << name;
    const CacheStats api_stats = cache->Stats();
    const CacheStats raw_stats = raw->Stats();
    EXPECT_EQ(api_stats.requests, raw_stats.requests) << name;
    EXPECT_EQ(api_stats.hits, raw_stats.hits) << name;
    EXPECT_EQ(api_stats.misses, raw_stats.misses) << name;
    EXPECT_EQ(api_stats.evictions, raw_stats.evictions) << name;
    EXPECT_EQ(api_stats.size, raw_stats.size) << name;
    cache->CheckInvariants();
  }
}

// Same for the concurrent adapter, against a raw ConcurrentQdLpFifo.
TEST(CacheApiTest, ConcurrentAdapterMatchesRawEngine) {
  ZipfTraceConfig trace_config;
  trace_config.num_requests = 20000;
  trace_config.num_objects = 2000;
  trace_config.seed = 11;
  const Trace trace = GenerateZipf(trace_config);
  CacheConfig config;
  config.policy = "concurrent-qdlp-fifo";
  config.capacity = 200;
  config.num_stripes = 4;
  config.num_shards = 1;
  std::unique_ptr<Cache> cache = MakeCache(config);
  ASSERT_NE(cache, nullptr);
  ConcurrentQdLpFifo raw(200, /*num_stripes=*/4, /*num_shards=*/1);
  uint64_t raw_hits = 0;
  for (const ObjectId id : trace.requests) {
    raw_hits += raw.Get(id) ? 1 : 0;
  }
  EXPECT_EQ(ReplayTrace(*cache, trace.requests), raw_hits);
  EXPECT_EQ(cache->Stats().hits, raw.Stats().hits);
  EXPECT_EQ(cache->Stats().size, raw.Stats().size);
}

// ISSUE acceptance oracle: every concurrent engine supports Delete()
// uniformly — no SupportsRemoval() escape hatch. Fresh-key delete must
// succeed, double delete must fail, and deleting every key ever admitted
// must drain the cache to size 0 (exercising mid-queue unlink and
// probation compaction under churn).
TEST(CacheApiTest, UniformDeleteOracleAcrossConcurrentEngines) {
  for (const char* name :
       {"concurrent-qdlp-fifo", "concurrent-clock", "concurrent-s3fifo",
        "global-lock-lru", "sharded-lru"}) {
    CacheConfig config;
    config.policy = name;
    config.capacity = 100;
    config.num_stripes = 4;
    config.num_shards = 2;
    std::unique_ptr<Cache> cache = MakeCache(config);
    ASSERT_NE(cache, nullptr) << name;
    // Removal leaves no ghost trace: re-admitting a just-deleted key is a
    // plain miss that no ghost resurrects. The re-admission is deleted
    // again, so the cache is left as the deletion left it.
    auto expect_no_ghost_trace = [&](ObjectId key) {
      const uint64_t ghost_hits = cache->Stats().ghost_hits;
      EXPECT_FALSE(cache->GetOrAdmit(key)) << name << " key " << key;
      EXPECT_EQ(cache->Stats().ghost_hits, ghost_hits)
          << name << " key " << key;
      EXPECT_TRUE(cache->Delete(key)) << name << " key " << key;
    };

    // A just-admitted key in an otherwise idle cache is always removable.
    for (ObjectId key = 1; key <= 20; ++key) {
      cache->Set(key, "", 0);
      EXPECT_TRUE(cache->Delete(key)) << name << " key " << key;
      expect_no_ghost_trace(key);
      EXPECT_FALSE(cache->Delete(key)) << name << " key " << key;
    }
    EXPECT_EQ(cache->Stats().size, 0u) << name;

    // Churn far past capacity, touching every other key twice so some are
    // promoted/accessed, then delete the whole universe.
    constexpr ObjectId kUniverse = 400;
    for (ObjectId key = 0; key < kUniverse; ++key) {
      cache->GetOrAdmit(key);
      if (key % 2 == 0) {
        cache->GetOrAdmit(key);
      }
    }
    for (ObjectId key = 0; key < kUniverse; ++key) {
      // True or false — the key may have been evicted (and an evicted key
      // may sit in a ghost, so only a real removal is checked).
      if (cache->Delete(key)) {
        expect_no_ghost_trace(key);
      }
    }
    EXPECT_EQ(cache->Stats().size, 0u) << name;
    cache->CheckInvariants();
  }
}

// Metadata adapters route Set through the blocking Admit path, so the key
// is resident when Set returns — even though the lock-free Get miss path
// is best-effort under contention. Single-threaded, the stats must be
// pinned exactly as if Get had run: one miss for the Set, one hit after.
TEST(CacheApiTest, MetadataAdapterSetIsResidentOnReturn) {
  for (const char* name :
       {"concurrent-qdlp-fifo", "concurrent-clock", "concurrent-s3fifo",
        "global-lock-lru", "sharded-lru"}) {
    CacheConfig config;
    config.policy = name;
    config.capacity = 64;
    config.num_stripes = 4;
    config.num_shards = 2;
    std::unique_ptr<Cache> cache = MakeCache(config);
    ASSERT_NE(cache, nullptr) << name;
    EXPECT_EQ(cache->Set(7, "", 0), Cache::SetStatus::kOk) << name;
    EXPECT_TRUE(cache->GetOrAdmit(7)) << name;  // resident: a hit
    const CacheStats stats = cache->Stats();
    EXPECT_EQ(stats.hits, 1u) << name;
    EXPECT_EQ(stats.misses, 1u) << name;
    EXPECT_EQ(stats.inserts, 1u) << name;
    EXPECT_EQ(stats.size, 1u) << name;
    cache->CheckInvariants();
  }
}

// Regression: small values used to carve the arena into small buddy
// classes permanently — a later max-size SET would evict the entire shard
// and still fail kNoSpace. With coalescing, evictions reassemble a
// max-size chunk and the SET succeeds.
TEST(CacheApiTest, ValueEngineServesLargeValueAfterSmallChurn) {
  CacheConfig config;
  config.policy = "concurrent-qdlp-fifo";
  config.capacity = 1024;
  config.num_stripes = 4;
  config.num_shards = 1;
  config.value_arena_bytes = 32 << 10;
  config.max_value_len = 16 << 10;
  config.now_fn = &FakeNow;
  std::unique_ptr<Cache> cache = MakeCache(config);
  ASSERT_NE(cache, nullptr);
  for (ObjectId key = 1; key <= 600; ++key) {
    ASSERT_EQ(cache->Set(key, std::string(40, 'a'), 0),
              Cache::SetStatus::kOk)
        << key;
  }
  const std::string big(16 << 10, 'B');
  EXPECT_EQ(cache->Set(9999, big, 0), Cache::SetStatus::kOk);
  std::string value;
  ASSERT_TRUE(cache->Get(9999, &value));
  EXPECT_EQ(value, big);
  cache->CheckInvariants();
}

TEST(CacheApiTest, ValueEngineServesBytes) {
  std::unique_ptr<Cache> cache = MakeCache(ValueConfig(100));
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Set(1, "alpha", 0), Cache::SetStatus::kOk);
  EXPECT_EQ(cache->Set(2, std::string(1000, 'b'), 0), Cache::SetStatus::kOk);
  std::string value;
  ASSERT_TRUE(cache->Get(1, &value));
  EXPECT_EQ(value, "alpha");
  ASSERT_TRUE(cache->Get(2, &value));
  EXPECT_EQ(value, std::string(1000, 'b'));
  // Overwrite replaces the bytes.
  EXPECT_EQ(cache->Set(1, "alpha-v2", 0), Cache::SetStatus::kOk);
  ASSERT_TRUE(cache->Get(1, &value));
  EXPECT_EQ(value, "alpha-v2");
  // Delete removes key and bytes.
  EXPECT_TRUE(cache->Delete(1));
  EXPECT_FALSE(cache->Get(1, &value));
  cache->CheckInvariants();
}

// A serving GET carries nothing to store, so a miss must NOT admit —
// unlike GetOrAdmit. This is what makes the loopback differential
// (server_e2e_test) byte-identical: both sides count a miss and move on.
TEST(CacheApiTest, ValueEngineGetMissDoesNotAdmit) {
  std::unique_ptr<Cache> cache = MakeCache(ValueConfig(100));
  std::string value;
  EXPECT_FALSE(cache->Get(42, &value));
  const CacheStats stats = cache->Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.size, 0u);
  EXPECT_FALSE(cache->Get(42, &value));  // still absent
}

TEST(CacheApiTest, ValueEngineHonorsTtl) {
  g_fake_now.store(1000, std::memory_order_relaxed);
  std::unique_ptr<Cache> cache = MakeCache(ValueConfig(100));
  EXPECT_EQ(cache->Set(1, "expiring", /*ttl_seconds=*/10),
            Cache::SetStatus::kOk);
  EXPECT_EQ(cache->Set(2, "forever", /*ttl_seconds=*/0),
            Cache::SetStatus::kOk);
  std::string value;
  g_fake_now.store(1009, std::memory_order_relaxed);
  EXPECT_TRUE(cache->Get(1, &value));
  EXPECT_EQ(value, "expiring");
  g_fake_now.store(1010, std::memory_order_relaxed);
  EXPECT_FALSE(cache->Get(1, &value));  // lazy expiry counts as a miss
  EXPECT_TRUE(cache->Get(2, &value));   // ttl 0 never expires
  EXPECT_EQ(value, "forever");
  // The expired object was removed, not just hidden: a re-set revives it.
  EXPECT_EQ(cache->Set(1, "reborn", 0), Cache::SetStatus::kOk);
  EXPECT_TRUE(cache->Get(1, &value));
  EXPECT_EQ(value, "reborn");
  cache->CheckInvariants();
  g_fake_now.store(0, std::memory_order_relaxed);
}

TEST(CacheApiTest, ValueEngineRejectsOversizedValues) {
  CacheConfig config = ValueConfig(100);
  config.max_value_len = 64;
  std::unique_ptr<Cache> cache = MakeCache(config);
  EXPECT_EQ(cache->Set(1, std::string(65, 'x'), 0),
            Cache::SetStatus::kTooLarge);
  EXPECT_EQ(cache->Set(1, std::string(64, 'x'), 0), Cache::SetStatus::kOk);
  std::string value;
  EXPECT_TRUE(cache->Get(1, &value));
  EXPECT_EQ(value, std::string(64, 'x'));
}

// Value churn well past both object capacity and arena capacity: every
// surviving object must read back exactly the bytes last stored for it.
TEST(CacheApiTest, ValueEngineChurnKeepsValuesConsistent) {
  CacheConfig config = ValueConfig(64);
  config.value_arena_bytes = 64 << 10;
  config.num_shards = 2;
  std::unique_ptr<Cache> cache = MakeCache(config);
  ASSERT_NE(cache, nullptr);
  constexpr ObjectId kUniverse = 256;
  std::vector<std::string> last(kUniverse);
  for (int round = 0; round < 4; ++round) {
    for (ObjectId key = 0; key < kUniverse; ++key) {
      std::string value = "r" + std::to_string(round) + "k" +
                          std::to_string(key) +
                          std::string(key % 97, static_cast<char>('A' + round));
      if (cache->Set(key, value, 0) == Cache::SetStatus::kOk) {
        last[key] = std::move(value);
      }
    }
    for (ObjectId key = 0; key < kUniverse; key += 3) {
      std::string value;
      if (cache->Get(key, &value)) {
        EXPECT_EQ(value, last[key]) << "round " << round << " key " << key;
      }
    }
    cache->CheckInvariants();
  }
}

}  // namespace
}  // namespace qdlp
