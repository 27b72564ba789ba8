// Batched sweep engine differential: one interleaved pass over the dense
// stream must be observationally identical to replaying each cell alone
// over the original trace — bit-identical hit counts, hence bit-identical
// miss ratios, for every serial policy on the lanes a materialized trace
// takes (dense index + dense ids, flat index + original ids; the flat
// index + dense ids lane is pinned in stream_replay_test). Every dense
// policy variant is pinned against its flat twin directly, and RunSweep's
// two engines against each other, points compared field by field in
// order.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/sim/batch_replay.h"
#include "src/sim/simulator.h"
#include "src/sim/sweep.h"
#include "src/trace/dense_trace.h"
#include "src/trace/generators.h"
#include "src/trace/trace.h"

namespace qdlp {
namespace {

// QDLP_CHECK_INVARIANTS (on in the debug and sanitizer presets) re-runs
// CheckInvariants() after every Access, which is O(resident state) on the
// flat policies and O(universe) on the dense-index lane. At full size that
// turns this suite's millions of replayed requests into an hour-scale run,
// so those builds replay the same grid — every policy, every lane, every
// shape — at 1/8 scale, mirroring how oracle_differential_test sizes
// itself. CacheSizeForFraction floors at 10, so no cell degenerates.
#ifdef QDLP_CHECK_INVARIANTS
constexpr uint64_t kScale = 8;
#else
constexpr uint64_t kScale = 1;
#endif

// The five workload shapes (src/trace/generators.h), sized down so the
// full-policy differential stays inside the tier-1 budget.
std::vector<Trace> TestTraces() {
  std::vector<Trace> traces;
  {
    ZipfTraceConfig config;
    config.num_requests = 20000 / kScale;
    config.num_objects = 3000 / kScale;
    traces.push_back(GenerateZipf(config));
  }
  {
    PopularityDecayConfig config;
    config.num_requests = 20000 / kScale;
    config.initial_objects = 800 / kScale;
    traces.push_back(GeneratePopularityDecay(config));
  }
  {
    ScanLoopConfig config;
    config.num_requests = 20000 / kScale;
    config.hot_objects = 2000 / kScale;
    config.hot_drift_objects = 500 / kScale;
    traces.push_back(GenerateScanLoop(config));
  }
  {
    PhaseChangeConfig config;
    config.num_requests = 20000 / kScale;
    config.working_set = 800 / kScale;
    config.phase_length = 4000 / kScale;
    traces.push_back(GeneratePhaseChange(config));
  }
  {
    HighReuseKvConfig config;
    config.num_requests = 20000 / kScale;
    config.num_objects = 1500 / kScale;
    traces.push_back(GenerateHighReuseKv(config));
  }
  return traces;
}

constexpr double kFractions[] = {0.001, 0.01, 0.10};

// Every registered policy, batched against its own per-cell replay, across
// 5 trace shapes x 3 size fractions. EXPECT_EQ on integer hit counts: the
// engines must agree exactly, not approximately.
TEST(BatchReplayTest, MatchesPerCellReplayForAllPolicies) {
  const std::vector<std::string> policies = KnownPolicyNames();
  for (const Trace& trace : TestTraces()) {
    const DenseTrace dense = DensifyTrace(trace);
    std::vector<BatchCellSpec> cells;
    for (const double fraction : kFractions) {
      const size_t cache_size = CacheSizeForFraction(trace, fraction);
      for (const std::string& policy : policies) {
        cells.push_back(BatchCellSpec{policy, cache_size});
      }
    }
    const std::vector<SimResult> batched =
        BatchReplayTrace(dense, cells, &trace.requests);
    ASSERT_EQ(batched.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      auto policy =
          MakePolicyOrDie(cells[i].policy, cells[i].cache_size, &trace.requests);
      const SimResult reference = ReplayTrace(*policy, trace);
      EXPECT_EQ(batched[i].hits, reference.hits)
          << trace.name << " " << cells[i].policy << " size "
          << cells[i].cache_size;
      EXPECT_EQ(batched[i].requests, reference.requests);
      EXPECT_EQ(batched[i].cache_size, reference.cache_size);
      EXPECT_EQ(batched[i].policy, reference.policy);
    }
  }
}

// Dense policy variants are drop-in equivalent: built directly (no engine
// in between), a dense-backed policy fed dense ids produces the same hit
// sequence as the flat-backed one fed the original ids. Every registered
// name with a dense variant is covered, so a policy that gains one is
// pinned here without a list to update.
TEST(BatchReplayTest, DensePolicyVariantsMatchFlatDirectly) {
  ScanLoopConfig config;
  config.num_requests = 15000 / kScale;
  config.hot_objects = 1500 / kScale;
  const Trace trace = GenerateScanLoop(config);
  const DenseTrace dense = DensifyTrace(trace);
  const size_t cache_size = 150 / kScale;
  std::vector<std::string> names = KnownPolicyNames();
  names.push_back("qd-s3fifo");
  names.push_back("qd-fifo");
  size_t covered = 0;
  for (const std::string& name : names) {
    if (!HasDenseVariant(name)) {
      continue;
    }
    ++covered;
    auto dense_policy = MakeDensePolicy(name, cache_size, dense.num_objects());
    ASSERT_NE(dense_policy, nullptr) << name;
    auto flat_policy = MakePolicyOrDie(name, cache_size);
    EXPECT_EQ(dense_policy->name(), flat_policy->name());
    EXPECT_EQ(dense_policy->capacity(), flat_policy->capacity());
    uint64_t dense_hits = 0;
    uint64_t flat_hits = 0;
    for (size_t i = 0; i < trace.requests.size(); ++i) {
      const bool dense_hit = dense_policy->Access(dense.requests[i]);
      const bool flat_hit = flat_policy->Access(trace.requests[i]);
      ASSERT_EQ(dense_hit, flat_hit) << name << " at request " << i;
      dense_hits += dense_hit ? 1 : 0;
      flat_hits += flat_hit ? 1 : 0;
    }
    EXPECT_EQ(dense_hits, flat_hits);
    dense_policy->CheckInvariants();
    flat_policy->CheckInvariants();
  }
  // The 11 remap-invariant bases and their QD forms in the list above.
  EXPECT_GE(covered, 16u);
}

// The two RunSweep engines must emit the same points in the same order —
// every field, miss ratios compared as exact doubles.
TEST(BatchReplayTest, SweepEnginesProduceIdenticalPoints) {
  const std::vector<Trace> traces = TestTraces();
  SweepConfig config;
  config.policies = {"fifo", "lru",    "clock2",     "sieve",
                     "s3fifo", "random", "qd-lp-fifo", "arc"};
  config.size_fractions = {0.001, 0.01, 0.10};
  config.num_threads = 2;

  config.engine = SweepEngine::kBatched;
  const std::vector<SweepPoint> batched = RunSweep(traces, config);
  config.engine = SweepEngine::kPerCell;
  const std::vector<SweepPoint> per_cell = RunSweep(traces, config);

  ASSERT_EQ(batched.size(), per_cell.size());
  for (size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].trace, per_cell[i].trace) << i;
    EXPECT_EQ(batched[i].dataset, per_cell[i].dataset) << i;
    EXPECT_EQ(batched[i].cls, per_cell[i].cls) << i;
    EXPECT_EQ(batched[i].size_fraction, per_cell[i].size_fraction) << i;
    EXPECT_EQ(batched[i].cache_size, per_cell[i].cache_size) << i;
    EXPECT_EQ(batched[i].policy, per_cell[i].policy) << i;
    // Bit-identical, not approximately equal: both engines accumulate
    // integer hit counts and divide once.
    EXPECT_EQ(batched[i].miss_ratio, per_cell[i].miss_ratio)
        << batched[i].trace << " " << batched[i].policy;
  }
}

}  // namespace
}  // namespace qdlp
