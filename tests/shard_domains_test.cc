// Sharded eviction domains (eviction_domains.h): with S > 1 each domain is
// an independent cache over its hash partition of the id space, so a
// single-threaded replay partitioned by ShardOf(id) must match S
// independent sequential reference models sized to the shards' capacity
// shares — the sharded generalization of the S == 1 oracle differential
// tests. ShardedLruCache, whose shards are hash partitions too, is checked
// the same way against per-shard LRU references. Plus: capacity-share
// arithmetic (remainder distribution, tiny-cache clamping) and the
// quiescent contention-counter identities that pin the telemetry's
// meaning (docs/OBSERVABILITY.md), and the domain lock's two promises:
// mutual exclusion, and a bounded spin before it parks.

#include <time.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/eviction_domains.h"
#include "src/concurrent/sharded_lru.h"
#include "src/obs/cache_stats.h"
#include "src/trace/generators.h"
#include "src/util/random.h"
#include "tests/oracle/reference_models.h"

namespace qdlp {
namespace {

Trace MakeTrace(uint64_t seed) {
  ZipfTraceConfig config;
  config.num_requests = 25000;
  config.num_objects = 1200;
  config.skew = 0.9;
  config.seed = seed;
  return GenerateZipf(config);
}

// Mirrors ConcurrentQdLpFifo's per-share split (concurrent_qdlp_fifo.cc):
// probation = clamp(round(0.10 * share), 1, share - 1), main the rest,
// ghost as large as main.
size_t QdLpProbationShare(size_t share) {
  const size_t probation = std::max<size_t>(
      1,
      static_cast<size_t>(std::llround(static_cast<double>(share) * 0.10)));
  return std::min(probation, share - 1);
}

// Quiescent single-threaded identities: the miss path's try_lock always
// succeeds (nothing ever buffers or drops), so the contention
// counters must read as pure bookkeeping — one acquisition per miss and
// zeros everywhere else. These are the assertions that make buffer_drops
// and friends trustworthy when a concurrent run reports them nonzero.
void ExpectQuiescentContentionCounters(const CacheStats& stats,
                                       const char* label) {
  EXPECT_EQ(stats.lock_acquisitions, stats.misses) << label;
  EXPECT_EQ(stats.lock_failures, 0u) << label;
  EXPECT_EQ(stats.buffer_drops, 0u) << label;
  EXPECT_EQ(stats.drain_batch_le8, 0u) << label;
  EXPECT_EQ(stats.drain_batch_le64, 0u) << label;
  EXPECT_EQ(stats.drain_batch_gt64, 0u) << label;
}

// Replays `trace` through `cache` and through one sequential oracle per
// shard (requests routed by ShardOf), asserting per-request agreement.
template <typename CacheT>
void ExpectMatchesPerShardOracles(
    CacheT& cache,
    const std::vector<std::unique_ptr<oracle::ReferenceModel>>& oracles,
    const Trace& trace, const char* label) {
  ASSERT_EQ(oracles.size(), cache.num_shards()) << label;
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const ObjectId id = trace.requests[i];
    const size_t s = cache.ShardOf(id);
    ASSERT_EQ(cache.Get(id), oracles[s]->Access(id))
        << label << ": diverged at request " << i << " (shard " << s << ")";
    if (i % 4999 == 0) {
      cache.CheckInvariants();
    }
  }
  cache.CheckInvariants();
  size_t oracle_total = 0;
  for (const auto& oracle : oracles) {
    oracle_total += oracle->size();
  }
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.size, oracle_total) << label;
  ExpectQuiescentContentionCounters(stats, label);
}

class ShardSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardSweepTest, ClockMatchesPerShardReferences) {
  const size_t requested_shards = GetParam();
  constexpr size_t kCapacity = 240;
  ConcurrentClockCache cache(kCapacity, /*bits=*/1, /*num_stripes=*/16,
                             requested_shards);
  EXPECT_EQ(cache.num_shards(), requested_shards);
  std::vector<std::unique_ptr<oracle::ReferenceModel>> oracles;
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    oracles.push_back(
        std::make_unique<oracle::RefClock>(cache.shard_capacity(s), 1));
  }
  const Trace trace = MakeTrace(7100 + requested_shards);
  ExpectMatchesPerShardOracles(cache, oracles, trace, "clock");
}

TEST_P(ShardSweepTest, S3FifoMatchesPerShardReferences) {
  const size_t requested_shards = GetParam();
  constexpr size_t kCapacity = 240;
  ConcurrentS3FifoCache cache(kCapacity, /*small_fraction=*/0.10,
                              /*ghost_factor=*/0.9, /*num_stripes=*/16,
                              requested_shards);
  EXPECT_EQ(cache.num_shards(), requested_shards);
  std::vector<std::unique_ptr<oracle::ReferenceModel>> oracles;
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    oracles.push_back(std::make_unique<oracle::RefS3Fifo>(
        cache.shard_capacity(s), 0.10, 0.9));
  }
  const Trace trace = MakeTrace(7200 + requested_shards);
  ExpectMatchesPerShardOracles(cache, oracles, trace, "s3fifo");
}

TEST_P(ShardSweepTest, QdLpFifoMatchesPerShardReferences) {
  const size_t requested_shards = GetParam();
  constexpr size_t kCapacity = 240;
  ConcurrentQdLpFifo cache(kCapacity, /*num_stripes=*/16, requested_shards);
  EXPECT_EQ(cache.num_shards(), requested_shards);
  std::vector<std::unique_ptr<oracle::ReferenceModel>> oracles;
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    const size_t share = cache.shard_capacity(s);
    const size_t probation = QdLpProbationShare(share);
    const size_t main = share - probation;
    oracles.push_back(
        std::make_unique<oracle::RefQdLpFifo>(probation, main, main));
  }
  const Trace trace = MakeTrace(7300 + requested_shards);
  ExpectMatchesPerShardOracles(cache, oracles, trace, "qd-lp-fifo");
}

// ShardedLruCache takes any shard count and routes by SplitMix64(id) % N,
// with remainder shares (the first capacity % N shards get one slot more).
// Its one-shard form is pinned by the oracle differential, so the
// 1-shard instance runs 3 shards instead: 241 over 2, 3 and 8 shards
// leaves a remainder every time.
TEST_P(ShardSweepTest, ShardedLruMatchesPerShardReferences) {
  const size_t shards = GetParam() == 1 ? 3 : GetParam();
  constexpr size_t kCapacity = 241;
  ShardedLruCache cache(kCapacity, shards);
  std::vector<oracle::RefLru> oracles;
  for (size_t s = 0; s < shards; ++s) {
    oracles.emplace_back(kCapacity / shards +
                         (s < kCapacity % shards ? 1 : 0));
  }
  const Trace trace = MakeTrace(7400 + shards);
  uint64_t hits = 0;
  for (size_t i = 0; i < trace.requests.size(); ++i) {
    const ObjectId id = trace.requests[i];
    const size_t s = SplitMix64(id) % shards;
    const bool hit = oracles[s].Access(id);
    ASSERT_EQ(cache.Get(id), hit)
        << "diverged at request " << i << " (shard " << s << ")";
    hits += hit ? 1 : 0;
    if (i % 4999 == 0) {
      cache.CheckInvariants();
    }
  }
  cache.CheckInvariants();
  size_t resident = 0;
  for (const oracle::RefLru& oracle : oracles) {
    resident += oracle.size();
  }
  // LRU admits every miss, evicts only when a full shard admits, and
  // promotes on every hit.
  const uint64_t misses = trace.requests.size() - hits;
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.size, resident);
  EXPECT_EQ(stats.inserts, misses);
  EXPECT_EQ(stats.evictions, misses - resident);
  EXPECT_EQ(stats.promotions, hits);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardSweepTest,
                         ::testing::Values(1, 2, 8));

TEST(ShardDomainsTest, CapacitySharesUseRemainderDistribution) {
  // 101 over 8 shards: 5 shards of 13, 3 of 12 — shares sum exactly and
  // never differ by more than one (ShardedLru's rule).
  ConcurrentClockCache cache(101, /*bits=*/1, /*num_stripes=*/16,
                             /*num_shards=*/8);
  ASSERT_EQ(cache.num_shards(), 8u);
  size_t total = 0;
  size_t min_share = static_cast<size_t>(-1);
  size_t max_share = 0;
  for (size_t s = 0; s < cache.num_shards(); ++s) {
    const size_t share = cache.shard_capacity(s);
    total += share;
    min_share = std::min(min_share, share);
    max_share = std::max(max_share, share);
  }
  EXPECT_EQ(total, 101u);
  EXPECT_EQ(min_share, 12u);
  EXPECT_EQ(max_share, 13u);
}

TEST(ShardDomainsTest, TinyCachesClampTheShardCount) {
  // QD-LP-FIFO needs >= 2 slots per shard (probation + main); a capacity-8
  // cache asked for 8 shards must degrade rather than create 1-slot shards.
  ConcurrentQdLpFifo tiny(8, /*num_stripes=*/16, /*num_shards=*/8);
  EXPECT_EQ(tiny.num_shards(), 4u);
  for (size_t s = 0; s < tiny.num_shards(); ++s) {
    EXPECT_GE(tiny.shard_capacity(s), 2u);
  }
  // Non-power-of-two requests round up (5 -> 8).
  ConcurrentClockCache rounded(1000, /*bits=*/1, /*num_stripes=*/16,
                               /*num_shards=*/5);
  EXPECT_EQ(rounded.num_shards(), 8u);
}

TEST(ShardDomainsTest, ShardSelectionIsStableAndInRange) {
  ConcurrentQdLpFifo cache(256, /*num_stripes=*/16, /*num_shards=*/8);
  for (ObjectId id = 0; id < 10000; ++id) {
    const size_t s = cache.ShardOf(id);
    EXPECT_LT(s, cache.num_shards());
    EXPECT_EQ(s, cache.ShardOf(id));  // pure function of the id
  }
}

// The drain protocol (domain_cache.h): a Get that finds its domain locked
// pushes the id into the domain's one ring and then bumps `pending`; a
// drain claims `pending` before popping and skips the ring when it claimed
// nothing. Racing misses end each episode, and at that quiescent point
// CheckInvariants requires every domain's ring empty after its drain — an
// id pushed but left behind by a drain that reset the count would stay
// there.
TEST(ShardDomainsTest, BufferedMissesAreNeverStranded) {
  constexpr int kThreads = 4;
  constexpr int kEpisodes = 40;
  constexpr ObjectId kKeysPerThread = 3000;
  for (const size_t shards : {1, 4}) {
    ConcurrentQdLpFifo cache(1 << 14, /*num_stripes=*/16, shards);
    for (int episode = 0; episode < kEpisodes; ++episode) {
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          const ObjectId base =
              (static_cast<ObjectId>(episode) << 40) +
              (static_cast<ObjectId>(t) << 32);
          for (ObjectId k = 0; k < kKeysPerThread; ++k) {
            cache.Get(base + k);
          }
        });
      }
      for (auto& thread : threads) {
        thread.join();
      }
      cache.CheckInvariants();
    }
    const CacheStats stats = cache.Stats();
    EXPECT_EQ(stats.requests, uint64_t{kThreads} * kEpisodes * kKeysPerThread)
        << shards;
  }
}

// DomainMutex is still a lock: four threads' unsynchronized increments
// under it all land, whether a thread enters through lock() or through
// the cache's try_lock-then-lock.
TEST(DomainMutexTest, IncrementsUnderItAllLand) {
  constexpr int kThreads = 4;
  constexpr uint64_t kIncrements = 200000;
  DomainMutex mu;
  uint64_t counter = 0;  // ordered only by mu
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kIncrements; ++i) {
        if ((i + t) % 2 == 0 || !mu.try_lock()) {
          mu.lock();
        }
        ++counter;
        mu.unlock();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, kThreads * kIncrements);
}

double ThreadCpuMs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

// Its spin is bounded: a waiter queued behind a holder that keeps the lock
// for 100 ms parks, burning far less CPU than the wait lasts.
TEST(DomainMutexTest, WaiterBehindLongHolderParks) {
  DomainMutex mu;
  mu.lock();
  std::atomic<bool> waiting{false};
  double waiter_cpu_ms = -1;
  std::thread waiter([&] {
    const double cpu0 = ThreadCpuMs();
    waiting.store(true);
    mu.lock();
    waiter_cpu_ms = ThreadCpuMs() - cpu0;
    mu.unlock();
  });
  while (!waiting.load()) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  mu.unlock();
  waiter.join();
  EXPECT_GE(waiter_cpu_ms, 0);
  EXPECT_LT(waiter_cpu_ms, 20);
}

}  // namespace
}  // namespace qdlp
