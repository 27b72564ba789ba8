// Randomized differential testing of the policy zoo against model-based
// oracles (tests/oracle/). Every deterministic policy — and every concurrent
// cache driven single-threaded — must agree with its obviously-correct
// reference model request-for-request across workload shapes and cache
// sizes; adaptive policies get bounded-divergence treatment plus the
// oracle-independent self-consistency checks.
//
// The slow build of this file (oracle_differential_slow_test, ctest label
// "slow") replays 8x longer traces and one extra cache size.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/locked_lru.h"
#include "src/concurrent/sharded_lru.h"
#include "src/core/policy_factory.h"
#include "src/trace/generators.h"
#include "src/util/random.h"
#include "src/util/zipf.h"
#include "tests/oracle/differential_runner.h"
#include "tests/oracle/reference_models.h"

namespace qdlp {
namespace {

#ifdef QDLP_ORACLE_SLOW
constexpr uint64_t kRequests = 64000;
const std::vector<size_t> kCacheSizes = {16, 101, 512, 1024};
#else
constexpr uint64_t kRequests = 8000;
const std::vector<size_t> kCacheSizes = {16, 101, 512};
#endif

const std::vector<std::string> kShapes = {"zipf", "web", "block", "kv",
                                          "phase"};

// Deterministic per-case seed: distinct per (shape, size) so different
// cases exercise different request streams.
uint64_t SeedFor(const std::string& shape, size_t cache_size) {
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  for (const char c : shape) {
    seed = seed * 31 + static_cast<uint64_t>(c);
  }
  return seed ^ (cache_size * 7919);
}

std::vector<ObjectId> BuildTrace(const std::string& shape, uint64_t seed) {
  if (shape == "zipf") {
    ZipfTraceConfig config;
    config.num_requests = kRequests;
    config.num_objects = 4000;
    config.skew = 1.0;
    config.seed = seed;
    return GenerateZipf(config).requests;
  }
  if (shape == "web") {
    PopularityDecayConfig config;
    config.num_requests = kRequests;
    config.initial_objects = 500;
    config.seed = seed;
    return GeneratePopularityDecay(config).requests;
  }
  if (shape == "block") {
    ScanLoopConfig config;
    config.num_requests = kRequests;
    config.hot_objects = 2000;
    config.hot_drift_objects = 500;
    config.scan_length_min = 50;
    config.scan_length_max = 400;
    config.loop_region = 80;
    config.seed = seed;
    return GenerateScanLoop(config).requests;
  }
  if (shape == "kv") {
    HighReuseKvConfig config;
    config.num_requests = kRequests;
    config.num_objects = 1500;
    config.seed = seed;
    return GenerateHighReuseKv(config).requests;
  }
  if (shape == "phase") {
    PhaseChangeConfig config;
    config.num_requests = kRequests;
    config.working_set = 800;
    config.phase_length = 1500;
    config.seed = seed;
    return GeneratePhaseChange(config).requests;
  }
  ADD_FAILURE() << "unknown shape " << shape;
  return {};
}

using DiffCase = std::tuple<std::string, std::string, size_t>;

std::string CaseName(const ::testing::TestParamInfo<DiffCase>& info) {
  const auto& [subject, shape, cache_size] = info.param;
  std::string name = subject + "_" + shape + "_c" + std::to_string(cache_size);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

// ---------------------------------------------------------------------------
// Exact lockstep: sequential policies with a deterministic spec.

class ExactDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(ExactDifferentialTest, MatchesOracleRequestForRequest) {
  const auto& [policy_name, shape, cache_size] = GetParam();
  const std::vector<ObjectId> trace =
      BuildTrace(shape, SeedFor(shape, cache_size));
  ASSERT_FALSE(trace.empty());

  const auto policy = MakePolicy(policy_name, cache_size);
  ASSERT_NE(policy, nullptr) << policy_name;
  const auto model = oracle::MakeExactOracle(policy_name, cache_size);
  ASSERT_NE(model, nullptr) << policy_name;

  oracle::PolicySubject subject(*policy);
  const oracle::DiffOutcome outcome =
      oracle::RunDifferential(subject, *model, trace);
  ASSERT_TRUE(outcome.ok) << policy_name << ": " << outcome.failure;
  EXPECT_EQ(outcome.subject_hits, outcome.oracle_hits);
  // The policy's own telemetry is pinned to the runner's external tally.
  const CacheStats stats = policy->Stats();
  EXPECT_EQ(stats.requests, outcome.requests) << policy_name;
  EXPECT_EQ(stats.hits, outcome.subject_hits) << policy_name;
  EXPECT_EQ(stats.misses, outcome.requests - outcome.subject_hits)
      << policy_name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ExactDifferentialTest,
    ::testing::Combine(
        ::testing::Values("fifo", "lru", "lfu", "fifo-reinsertion", "clock2",
                          "clock3", "sieve", "s3fifo", "qd-lp-fifo"),
        ::testing::ValuesIn(kShapes), ::testing::ValuesIn(kCacheSizes)),
    CaseName);

// ---------------------------------------------------------------------------
// Exact lockstep: concurrent caches driven from a single thread must behave
// exactly like their sequential specification.

class ConcurrentDifferentialTest : public ::testing::TestWithParam<DiffCase> {
};

TEST_P(ConcurrentDifferentialTest, MatchesOracleRequestForRequest) {
  const auto& [cache_name, shape, cache_size] = GetParam();
  const std::vector<ObjectId> trace =
      BuildTrace(shape, SeedFor(shape, cache_size));
  ASSERT_FALSE(trace.empty());

  std::unique_ptr<ConcurrentCache> cache;
  std::unique_ptr<oracle::ReferenceModel> model;
  if (cache_name == "concurrent-s3fifo") {
    cache = std::make_unique<ConcurrentS3FifoCache>(cache_size, 0.10, 0.9,
                                                    /*num_shards=*/4);
    model = std::make_unique<oracle::RefS3Fifo>(cache_size, 0.10, 0.9);
  } else if (cache_name == "concurrent-clock") {
    cache = std::make_unique<ConcurrentClockCache>(cache_size, /*bits=*/1,
                                                   /*num_shards=*/4);
    model = std::make_unique<oracle::RefClock>(cache_size, /*bits=*/1);
  } else if (cache_name == "concurrent-qdlp-fifo") {
    cache = std::make_unique<ConcurrentQdLpFifo>(cache_size, /*num_stripes=*/4);
    model = oracle::MakeExactOracle("qd-lp-fifo", cache_size);
  } else if (cache_name == "sharded-lru") {
    // One shard: sharded LRU degenerates to exact global LRU.
    cache = std::make_unique<ShardedLruCache>(cache_size, /*num_shards=*/1);
    model = std::make_unique<oracle::RefLru>(cache_size);
  } else if (cache_name == "global-lock-lru") {
    cache = std::make_unique<GlobalLockLruCache>(cache_size);
    model = std::make_unique<oracle::RefLru>(cache_size);
  }
  ASSERT_NE(cache, nullptr) << cache_name;

  oracle::ConcurrentSubject subject(*cache);
  const oracle::DiffOutcome outcome =
      oracle::RunDifferential(subject, *model, trace);
  ASSERT_TRUE(outcome.ok) << cache_name << ": " << outcome.failure;
  EXPECT_EQ(outcome.subject_hits, outcome.oracle_hits);
  // Single-threaded, the concurrent caches' telemetry is exact too.
  const CacheStats stats = cache->Stats();
  EXPECT_EQ(stats.requests, outcome.requests) << cache_name;
  EXPECT_EQ(stats.hits, outcome.subject_hits) << cache_name;
  EXPECT_EQ(stats.misses, outcome.requests - outcome.subject_hits)
      << cache_name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ConcurrentDifferentialTest,
    ::testing::Combine(::testing::Values("concurrent-s3fifo",
                                         "concurrent-clock",
                                         "concurrent-qdlp-fifo", "sharded-lru",
                                         "global-lock-lru"),
                       ::testing::ValuesIn(kShapes),
                       ::testing::ValuesIn(kCacheSizes)),
    CaseName);

// ---------------------------------------------------------------------------
// Removal lockstep: one-shard concurrent QD-LP-FIFO and S3-FIFO under a
// seeded mix of Get and Remove, against the removal-capable oracles. Every
// Get's hit/miss and every Remove's result must agree, and so must the
// flow counters: evictions, promotions, demotions and ghost hits.

template <typename Model>
void RunRemovalDifferential(ConcurrentCache& cache, Model& model,
                            size_t cache_size, uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(/*n=*/4 * cache_size, /*skew=*/0.8);
  uint64_t removes = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    const ObjectId id = zipf.Sample(rng);
    if (rng.NextBounded(5) == 0) {
      const bool removed = model.Remove(id);
      ASSERT_EQ(cache.Remove(id), removed) << "remove " << i << " id " << id;
      removes += removed ? 1 : 0;
    } else {
      ASSERT_EQ(cache.Get(id), model.Access(id))
          << "get " << i << " id " << id;
    }
    if (i % 997 == 0) {
      cache.CheckInvariants();
    }
  }
  cache.CheckInvariants();
  EXPECT_GT(removes, kRequests / 20);  // the removals did hit residents
  const CacheStats stats = cache.Stats();
  const oracle::RefCounters counters = model.counters();
  EXPECT_EQ(stats.evictions, counters.evictions);
  EXPECT_EQ(stats.promotions, counters.promotions);
  EXPECT_EQ(stats.demotions, counters.demotions);
  EXPECT_EQ(stats.ghost_hits, counters.ghost_hits);
  EXPECT_EQ(stats.size, model.size());
}

class RemovalDifferentialTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(RemovalDifferentialTest, QdLpFifoMatchesOracle) {
  const auto& [cache_size, seed] = GetParam();
  ConcurrentQdLpFifo cache(cache_size, /*num_stripes=*/4);
  oracle::RefQdLpFifo model(cache.probation_capacity(), cache.main_capacity(),
                            /*ghost_capacity=*/cache.main_capacity());
  RunRemovalDifferential(cache, model, cache_size, seed);
}

TEST_P(RemovalDifferentialTest, S3FifoMatchesOracle) {
  const auto& [cache_size, seed] = GetParam();
  ConcurrentS3FifoCache cache(cache_size, 0.10, 0.9, /*num_stripes=*/4);
  oracle::RefS3Fifo model(cache_size, 0.10, 0.9);
  RunRemovalDifferential(cache, model, cache_size, seed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RemovalDifferentialTest,
    ::testing::Combine(::testing::ValuesIn(kCacheSizes),
                       ::testing::Values(uint64_t{1}, uint64_t{0x5eed})),
    [](const ::testing::TestParamInfo<std::tuple<size_t, uint64_t>>& info) {
      return "size" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Bounded divergence: adaptive policies legitimately differ from any naive
// oracle per-request. Replaying against reference LRU still catches
// catastrophic breakage (hit-ratio collapse, always-miss bugs) while the
// oracle-independent checks — hit iff resident before, occupancy within
// capacity, structural invariants — run at full strength.

class BoundedDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(BoundedDifferentialTest, StaysWithinDivergenceBudgetOfLru) {
  const auto& [policy_name, shape, cache_size] = GetParam();
  const std::vector<ObjectId> trace =
      BuildTrace(shape, SeedFor(shape, cache_size));
  ASSERT_FALSE(trace.empty());

  const auto policy = MakePolicy(policy_name, cache_size);
  ASSERT_NE(policy, nullptr) << policy_name;
  oracle::RefLru model(cache_size);

  oracle::DiffOptions options;
  options.divergence_slack = 0.35;
  options.divergence_grace = 300;

  oracle::PolicySubject subject(*policy);
  const oracle::DiffOutcome outcome =
      oracle::RunDifferential(subject, model, trace, options);
  ASSERT_TRUE(outcome.ok) << policy_name << ": " << outcome.failure;
  // Even without per-request oracle agreement, the adaptive policies'
  // counters must match the runner's external tally of their own outcomes.
  const CacheStats stats = policy->Stats();
  EXPECT_EQ(stats.requests, outcome.requests) << policy_name;
  EXPECT_EQ(stats.hits, outcome.subject_hits) << policy_name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, BoundedDifferentialTest,
    ::testing::Combine(::testing::Values("arc", "arc-fixed", "lirs",
                                         "clockpro", "wtinylfu", "2q", "slru",
                                         "mq", "car", "lru2"),
                       ::testing::ValuesIn(kShapes),
                       ::testing::ValuesIn(kCacheSizes)),
    CaseName);

}  // namespace
}  // namespace qdlp
