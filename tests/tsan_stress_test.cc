// Thread stress for the concurrent caches, built to run under
// ThreadSanitizer (the "tsan" CMake preset; ctest label "sanitizer").
//
// Several threads hammer each cache with overlapping skewed key streams —
// maximizing hit-path/miss-path interleavings on shared ids — then the
// structural invariants are validated at quiescent points. Under TSan every
// cross-thread access ordering bug in the hit path (the lock-free CLOCK
// counter bumps, the shared-lock index reads) becomes a hard failure; in
// normal builds this doubles as a cheap concurrency smoke test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/mpsc_ring.h"
#include "src/concurrent/sharded_lru.h"
#include "src/concurrent/striped_index.h"
#include "src/util/random.h"

namespace qdlp {
namespace {

constexpr int kThreads = 4;
constexpr int kOpsPerThread = 25000;
constexpr uint64_t kUniverse = 4096;  // ids overlap heavily across threads

void HammerFromManyThreads(ConcurrentCache& cache) {
  std::atomic<uint64_t> total_hits{0};
  std::atomic<uint64_t> total_ops{0};
  std::atomic<bool> stop_stats{false};

  // A telemetry reader storms Stats() for the whole run: snapshots must be
  // safe concurrently with the lock-free hit path and the eviction lock
  // (under TSan this is the counters' and occupancy reads' race check).
  std::thread stats_reader([&] {
    uint64_t snapshots = 0;
    while (!stop_stats.load(std::memory_order_acquire)) {
      const CacheStats stats = cache.Stats();
      // Each Get() counts exactly one of hit/miss, so even a torn-free
      // relaxed snapshot can never conjure more of one than of both.
      EXPECT_LE(stats.hits, stats.requests);
      EXPECT_LE(stats.misses, stats.requests);
      ++snapshots;
    }
    EXPECT_GT(snapshots, 0u);
  });

  const auto worker = [&](int thread_index) {
    Rng rng(0xabcdef01u + static_cast<uint64_t>(thread_index));
    uint64_t hits = 0;
    for (int op = 0; op < kOpsPerThread; ++op) {
      // Skewed stream: a small hot set shared by all threads plus a cold
      // tail, so the same ids race through hit and miss paths constantly.
      ObjectId id;
      if (rng.NextBool(0.7)) {
        id = rng.NextBounded(kUniverse / 16);  // hot
      } else {
        id = rng.NextBounded(kUniverse);  // cold tail
      }
      hits += cache.Get(id) ? 1 : 0;
    }
    total_hits.fetch_add(hits, std::memory_order_relaxed);
    total_ops.fetch_add(kOpsPerThread, std::memory_order_relaxed);
  };

  // Two rounds with an invariant check at the quiescent point between them:
  // corruption from round one cannot hide behind round two's churn.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(worker, round * kThreads + t);
    }
    for (auto& thread : threads) {
      thread.join();
    }
    cache.CheckInvariants();
  }

  stop_stats.store(true, std::memory_order_release);
  stats_reader.join();

  EXPECT_EQ(total_ops.load(), 2ull * kThreads * kOpsPerThread);
  // A cache of this size over this stream must produce plenty of hits; a
  // near-zero count means Get() stopped admitting or finding anything.
  EXPECT_GT(total_hits.load(), total_ops.load() / 10) << cache.name();

  // Quiescent: the counters must have counted every Get() exactly once.
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.requests, total_ops.load()) << cache.name();
  EXPECT_EQ(stats.hits, total_hits.load()) << cache.name();
  EXPECT_EQ(stats.hits + stats.misses, stats.requests) << cache.name();
}

TEST(TsanStressTest, GlobalLockLru) {
  GlobalLockLruCache cache(512);
  HammerFromManyThreads(cache);
}

TEST(TsanStressTest, ShardedLru) {
  ShardedLruCache cache(512, /*num_shards=*/8);
  HammerFromManyThreads(cache);
}

TEST(TsanStressTest, ConcurrentClock) {
  ConcurrentClockCache cache(512, /*bits=*/1, /*num_stripes=*/8);
  HammerFromManyThreads(cache);
}

TEST(TsanStressTest, ConcurrentS3Fifo) {
  ConcurrentS3FifoCache cache(512, /*small_fraction=*/0.10,
                              /*ghost_factor=*/0.9, /*num_stripes=*/8);
  HammerFromManyThreads(cache);
}

TEST(TsanStressTest, ConcurrentQdLpFifo) {
  ConcurrentQdLpFifo cache(512, /*num_stripes=*/8);
  HammerFromManyThreads(cache);
}

// The sharded miss paths under the same hammer: misses now race across
// four eviction domains (home-shard try_lock, MPSC buffering, the drain
// by the home domain's next lock holder), with the Stats() reader storm
// concurrently summing per-shard occupancy under the shard mutexes.
TEST(TsanStressTest, ConcurrentClockSharded) {
  ConcurrentClockCache cache(512, /*bits=*/1, /*num_stripes=*/8,
                             /*num_shards=*/4);
  HammerFromManyThreads(cache);
}

TEST(TsanStressTest, ConcurrentS3FifoSharded) {
  ConcurrentS3FifoCache cache(512, /*small_fraction=*/0.10,
                              /*ghost_factor=*/0.9, /*num_stripes=*/8,
                              /*num_shards=*/4);
  HammerFromManyThreads(cache);
}

TEST(TsanStressTest, ConcurrentQdLpFifoSharded) {
  ConcurrentQdLpFifo cache(512, /*num_stripes=*/8, /*num_shards=*/4);
  HammerFromManyThreads(cache);
}

// Worst-case shard contention: every id hashes to one of just TWO domains
// of a 4-shard cache, so four threads continuously collide on the same two
// eviction mutexes while a reader storms Stats(). This is the densest
// exercise of the failure paths — failed try-locks, ring drains and
// ring-full drops — and the quiescent counters must still reconcile
// exactly afterwards.
TEST(TsanStressTest, TwoHotShardsContention) {
  ConcurrentQdLpFifo cache(512, /*num_stripes=*/8, /*num_shards=*/4);
  ASSERT_EQ(cache.num_shards(), 4u);
  // Precompute an id pool confined to shards 0 and 1. A tiny pool keeps
  // the miss rate (and thus eviction-lock pressure) high.
  std::vector<ObjectId> pool;
  for (ObjectId id = 0; pool.size() < 2048 && id < 100000; ++id) {
    if (cache.ShardOf(id) <= 1) {
      pool.push_back(id);
    }
  }
  ASSERT_GE(pool.size(), 1024u);

  std::atomic<uint64_t> total_hits{0};
  std::atomic<bool> stop_stats{false};
  std::thread stats_reader([&] {
    while (!stop_stats.load(std::memory_order_acquire)) {
      const CacheStats stats = cache.Stats();
      EXPECT_LE(stats.hits, stats.requests);
      EXPECT_LE(stats.buffer_drops, stats.lock_failures);
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x2507a000u + static_cast<uint64_t>(t));
      uint64_t hits = 0;
      for (int op = 0; op < kOpsPerThread; ++op) {
        hits += cache.Get(pool[rng.NextBounded(pool.size())]) ? 1 : 0;
      }
      total_hits.fetch_add(hits, std::memory_order_relaxed);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  stop_stats.store(true, std::memory_order_release);
  stats_reader.join();

  cache.CheckInvariants();
  const CacheStats stats = cache.Stats();
  const uint64_t total_ops =
      static_cast<uint64_t>(kThreads) * kOpsPerThread;
  EXPECT_EQ(stats.requests, total_ops);
  EXPECT_EQ(stats.hits, total_hits.load());
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
  // Every miss either acquired its home-domain lock, or failed and was
  // buffered or dropped; an acquisition whose locked re-probe finds the
  // id already admitted counts a hit, so it can only add to the left-hand
  // side.
  EXPECT_GE(stats.lock_acquisitions + stats.lock_failures, stats.misses);
  EXPECT_LE(stats.buffer_drops, stats.lock_failures);
}

// The blocking-admission path (Admit, which backs the adapter's Set)
// racing the best-effort Get miss path and Remove across four eviction
// domains: Admit's blocking lock must interleave safely with try_lock
// misses, MPSC-buffer drains, and removals, and both access kinds must
// still count exactly one hit-or-miss each at quiescence.
TEST(TsanStressTest, AdmitVsGetVsRemoveStorm) {
  ConcurrentQdLpFifo cache(512, /*num_stripes=*/8, /*num_shards=*/4);
  std::atomic<uint64_t> total_accesses{0};
  std::atomic<bool> stop_stats{false};
  std::thread stats_reader([&] {
    while (!stop_stats.load(std::memory_order_acquire)) {
      const CacheStats stats = cache.Stats();
      EXPECT_LE(stats.hits, stats.requests);
      EXPECT_LE(stats.misses, stats.requests);
    }
  });

  for (int round = 0; round < 2; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t, round] {
        Rng rng(0xad317000u +
                0x100u * static_cast<uint64_t>(round * kThreads + t));
        uint64_t accesses = 0;
        for (int op = 0; op < kOpsPerThread / 2; ++op) {
          const ObjectId id = rng.NextBounded(kUniverse / 4);
          const int kind = static_cast<int>(rng.NextBounded(10));
          if (kind < 5) {
            cache.Get(id);
            ++accesses;
          } else if (kind < 9) {
            cache.Admit(id);
            ++accesses;
          } else {
            cache.Remove(id);
          }
        }
        total_accesses.fetch_add(accesses, std::memory_order_relaxed);
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    cache.CheckInvariants();
  }
  stop_stats.store(true, std::memory_order_release);
  stats_reader.join();

  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.requests, total_accesses.load());
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
}

// The value-serving storm (ISSUE acceptance): threads mix GetValue /
// SetValue / Remove on a value-storing ConcurrentQdLpFifo while a reader
// storms Stats(). Under TSan this races the lock-free seqlock value reads
// against commits, moves (probation promotion/compaction), and frees on
// the eviction path. Any value that reads as a hit must be a value some
// thread actually stored for that id — never torn, never another id's
// bytes.
TEST(TsanStressTest, QdLpFifoValueStorm) {
  QdlpValueOptions value_options;
  value_options.arena_bytes = 1 << 20;
  value_options.max_value_len = 512;
  ConcurrentQdLpFifo cache(512, /*num_stripes=*/8, /*num_shards=*/4,
                           value_options);

  std::atomic<bool> stop_stats{false};
  std::thread stats_reader([&] {
    while (!stop_stats.load(std::memory_order_acquire)) {
      const CacheStats stats = cache.Stats();
      EXPECT_LE(stats.hits, stats.requests);
      EXPECT_LE(stats.misses, stats.requests);
    }
  });

  // Values are self-describing — "id:<id>:" plus id-derived padding — so
  // a reader can verify any hit without coordination.
  const auto value_for = [](ObjectId id) {
    std::string value = "id:" + std::to_string(id) + ":";
    value.append(id % 100, static_cast<char>('a' + id % 26));
    return value;
  };

  for (int round = 0; round < 2; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t, round] {
        Rng rng(0x7a1u + 0x1000u * static_cast<uint64_t>(round * kThreads + t));
        std::string value;
        for (int op = 0; op < kOpsPerThread / 2; ++op) {
          const ObjectId id = rng.NextBounded(kUniverse / 4);
          const int kind = static_cast<int>(rng.NextBounded(10));
          if (kind < 6) {
            if (cache.GetValue(id, /*now_s=*/0, &value)) {
              EXPECT_EQ(value, value_for(id)) << id;
            }
          } else if (kind < 9) {
            cache.SetValue(id, value_for(id), /*expiry_s=*/0);
          } else {
            cache.Remove(id);
          }
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    cache.CheckInvariants();
  }
  stop_stats.store(true, std::memory_order_release);
  stats_reader.join();

  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
}

// The lock-free index alone: one serialized writer churns insert/erase
// while lock-free readers probe — TSan checks the seqlock + release/acquire
// slot protocol directly, without a cache on top.
// The qdlpd GET path under fire: readers hand each batch of keys to the
// prefetch hint, then append-read every key behind a header-like prefix,
// while writers SET, overwrite with changing lengths (chunks split,
// coalesce and recycle through the buddy allocator) and DELETE, and a
// Stats() reader runs alongside. Values frame their (key, version), so a
// reader checks every hit on its own.
TEST(TsanStressTest, PrefetchThenAppendReadStorm) {
  QdlpValueOptions value_options;
  value_options.arena_bytes = 256 << 10;
  value_options.max_value_len = 2048;
  ConcurrentQdLpFifo cache(512, /*num_stripes=*/8, /*num_shards=*/4,
                           value_options);
  Cache& face = cache;
  constexpr uint64_t kKeys = 1024;
  constexpr int kBatch = 8;

  // "<key>:<version>:" then padding whose length and bytes follow from
  // the pair; lengths span 1..~2000 bytes across versions.
  const auto value_for = [](uint64_t key, uint64_t version) {
    std::string value =
        std::to_string(key) + ":" + std::to_string(version) + ":";
    value.append((key * 31 + version * 257) % 2000,
                 static_cast<char>('a' + (key + version) % 26));
    return value;
  };
  const auto well_framed = [&](uint64_t key, std::string_view value) {
    const size_t first = value.find(':');
    const size_t second = value.find(':', first + 1);
    if (first == std::string_view::npos || second == std::string_view::npos ||
        value.substr(0, first) != std::to_string(key)) {
      return false;
    }
    const uint64_t version =
        std::stoull(std::string(value.substr(first + 1, second - first - 1)));
    return value == value_for(key, version);
  };

  std::atomic<bool> stop{false};
  std::thread stats_reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const CacheStats stats = cache.Stats();
      EXPECT_LE(stats.hits, stats.requests);
    }
  });
  // Readers start once a SET has landed: a reader that ran its whole loop
  // before any writer was scheduled would see only misses.
  std::atomic<bool> first_set_done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x5e7u + static_cast<uint64_t>(t));
      uint64_t version = static_cast<uint64_t>(t) << 32;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const uint64_t key = rng.NextBounded(kKeys);
        if (rng.NextBounded(8) == 0) {
          face.Delete(key);
        } else {
          face.Set(key, value_for(key, ++version), /*ttl_seconds=*/0);
          first_set_done.store(true, std::memory_order_release);
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      while (!first_set_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      Rng rng(0xbead0u + static_cast<uint64_t>(t));
      const std::string prefix = "header-bytes";
      std::string out;
      ObjectId keys[kBatch];
      for (int op = 0; op < kOpsPerThread; op += kBatch) {
        for (ObjectId& key : keys) {
          key = rng.NextBounded(kKeys);
        }
        face.PrefetchGets(keys, kBatch);
        for (const ObjectId key : keys) {
          out = prefix;
          if (face.GetAppend(key, &out)) {
            ASSERT_EQ(out.compare(0, prefix.size(), prefix), 0);
            ASSERT_TRUE(well_framed(
                key, std::string_view(out).substr(prefix.size())))
                << key;
          } else {
            ASSERT_EQ(out, prefix);
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  stop.store(true, std::memory_order_release);
  stats_reader.join();
  cache.CheckInvariants();
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.requests);
  EXPECT_GT(stats.hits, 0u);
}

TEST(TsanStressTest, StripedIndexReadersVsWriter) {
  StripedAtomicIndex index(/*max_entries=*/1024, /*num_stripes=*/8);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads - 1; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0x51ab0000u + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        uint32_t value;
        index.Find(rng.NextBounded(kUniverse), &value);
      }
    });
  }
  Rng rng(0x51ab1111u);
  std::vector<bool> present(kUniverse, false);
  for (int step = 0; step < 150000; ++step) {
    const ObjectId id = rng.NextBounded(kUniverse);
    if (present[id]) {
      index.Erase(id);
      present[id] = false;
    } else {
      index.Insert(id, static_cast<uint32_t>(id));
      present[id] = true;
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : readers) {
    thread.join();
  }
  index.CheckInvariants();
}

// The miss-path buffers alone: concurrent producers vs one consumer.
TEST(TsanStressTest, MpscRingProducersVsConsumer) {
  MpscRing ring(64);
  std::atomic<int> done{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(0x3156c000u + static_cast<uint64_t>(t));
      for (int i = 0; i < 50000; ++i) {
        ring.TryPush(rng.NextBounded(kUniverse));
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  uint64_t value;
  uint64_t popped = 0;
  while (done.load(std::memory_order_acquire) < kThreads ||
         ring.TryPop(&value)) {
    if (ring.TryPop(&value)) {
      ++popped;
    }
  }
  for (auto& thread : producers) {
    thread.join();
  }
  EXPECT_GT(popped, 0u);
}

}  // namespace
}  // namespace qdlp
