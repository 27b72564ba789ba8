// Cross-policy property tests: invariants every eviction policy must hold,
// swept over the full policy registry × capacities × workload shapes.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/sim/simulator.h"
#include "src/trace/generators.h"
#include "src/trace/trace.h"
#include "src/util/random.h"

namespace qdlp {
namespace {

enum class PropertyWorkload { kBlockScan, kWebDecay };

Trace PropertyTrace(uint64_t seed, PropertyWorkload workload) {
  if (workload == PropertyWorkload::kBlockScan) {
    // Zipf core with scans: hit and eviction paths both run hot.
    ScanLoopConfig config;
    config.num_requests = 12000;
    config.hot_objects = 400;
    config.hot_skew = 0.9;
    config.scan_start_probability = 0.004;
    config.seed = seed;
    return GenerateScanLoop(config);
  }
  // Web shape: popularity decay plus one-hit wonders, which exercises the
  // ghost/history machinery of the composed policies.
  PopularityDecayConfig config;
  config.num_requests = 12000;
  config.one_hit_wonder_fraction = 0.2;
  config.initial_objects = 400;
  config.seed = seed;
  return GeneratePopularityDecay(config);
}

class PolicyPropertyTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, size_t, PropertyWorkload>> {
 protected:
  std::string PolicyName() const { return std::get<0>(GetParam()); }
  size_t Capacity() const { return std::get<1>(GetParam()); }
  Trace PropertyTrace(uint64_t seed) const {
    return qdlp::PropertyTrace(seed, std::get<2>(GetParam()));
  }
};

TEST_P(PolicyPropertyTest, SizeNeverExceedsCapacity) {
  const Trace trace = PropertyTrace(211);
  auto policy = MakePolicy(PolicyName(), Capacity(), &trace.requests);
  ASSERT_NE(policy, nullptr);
  for (const ObjectId id : trace.requests) {
    policy->Access(id);
    ASSERT_LE(policy->size(), Capacity());
  }
}

TEST_P(PolicyPropertyTest, SteadyStateIsFull) {
  // After far more distinct objects than capacity, a demand-filled cache
  // should hold a substantial population — policies must not leak space.
  // (Not necessarily 100%: admission-filtering designs like QD/S3-FIFO keep
  // their main region at working-set size, and Belady refuses objects with
  // no future use.)
  if (PolicyName() == "belady") {
    GTEST_SKIP();
  }
  const Trace trace = PropertyTrace(223);
  auto policy = MakePolicy(PolicyName(), Capacity(), &trace.requests);
  ASSERT_NE(policy, nullptr);
  for (const ObjectId id : trace.requests) {
    policy->Access(id);
  }
  EXPECT_GE(policy->size(), Capacity() / 2);
}

TEST_P(PolicyPropertyTest, ResidentAfterMissAdmission) {
  if (PolicyName() == "belady") {
    GTEST_SKIP();  // Belady legitimately bypasses never-reused objects
  }
  const Trace trace = PropertyTrace(227);
  auto policy = MakePolicy(PolicyName(), Capacity(), &trace.requests);
  ASSERT_NE(policy, nullptr);
  for (const ObjectId id : trace.requests) {
    const bool hit = policy->Access(id);
    if (!hit) {
      ASSERT_TRUE(policy->Contains(id)) << "missed object not admitted";
    }
  }
}

TEST_P(PolicyPropertyTest, HitImpliesResidentBefore) {
  const Trace trace = PropertyTrace(229);
  auto policy = MakePolicy(PolicyName(), Capacity(), &trace.requests);
  ASSERT_NE(policy, nullptr);
  for (const ObjectId id : trace.requests) {
    const bool was_resident = policy->Contains(id);
    const bool hit = policy->Access(id);
    ASSERT_EQ(hit, was_resident) << "hit/containment disagree";
  }
}

TEST_P(PolicyPropertyTest, DeterministicReplay) {
  const Trace trace = PropertyTrace(233);
  const auto run = [&] {
    auto policy = MakePolicy(PolicyName(), Capacity(), &trace.requests);
    return ReplayTrace(*policy, trace).hits;
  };
  EXPECT_EQ(run(), run());
}

TEST_P(PolicyPropertyTest, MissRatioWithinLogicalBounds) {
  const Trace trace = PropertyTrace(239);
  auto policy = MakePolicy(PolicyName(), Capacity(), &trace.requests);
  ASSERT_NE(policy, nullptr);
  const SimResult result = ReplayTrace(*policy, trace);
  const double compulsory = static_cast<double>(trace.num_objects) /
                            static_cast<double>(trace.requests.size());
  EXPECT_LE(result.miss_ratio(), 1.0);
  // No demand-fill policy can beat the compulsory miss floor.
  EXPECT_GE(result.miss_ratio(), compulsory - 1e-12);
}

TEST_P(PolicyPropertyTest, NeverBeatsBelady) {
  const Trace trace = PropertyTrace(241);
  auto policy = MakePolicy(PolicyName(), Capacity(), &trace.requests);
  ASSERT_NE(policy, nullptr);
  const SimResult result = ReplayTrace(*policy, trace);
  const SimResult optimal = SimulatePolicy("belady", trace, Capacity());
  EXPECT_GE(result.misses(), optimal.misses());
}

std::vector<std::string> AllPolicies() { return KnownPolicyNames(); }

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAndSizes, PolicyPropertyTest,
    ::testing::Combine(::testing::ValuesIn(AllPolicies()),
                       ::testing::Values<size_t>(16, 97, 512),
                       ::testing::Values(PropertyWorkload::kBlockScan,
                                         PropertyWorkload::kWebDecay)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, size_t, PropertyWorkload>>& info) {
      std::string name =
          std::get<0>(info.param) + "_" + std::to_string(std::get<1>(info.param)) +
          (std::get<2>(info.param) == PropertyWorkload::kBlockScan ? "_block"
                                                                   : "_web");
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

// Every capacity the factory accepts must run: 1 and up for a base policy,
// 2 and up for a QD composition (whose main then holds just 1 or 2). A
// small key space keeps every policy at capacity, cycling through its
// eviction, ghost and adaptation paths, with the structural and telemetry
// invariants checked after every request.
class TinyCapacityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TinyCapacityTest, RunsUnderInvariantsAtCapacitiesOneToThree) {
  const std::string& name = GetParam();
  Trace trace;
  trace.requests = {1, 1, 2, 2, 3};
  Rng rng(307);
  for (int i = 0; i < 3000; ++i) {
    trace.requests.push_back(rng.NextBounded(i % 1000 < 500 ? 4 : 12));
  }
  const size_t min_capacity = name.rfind("qd-", 0) == 0 ? 2 : 1;
  for (size_t capacity = min_capacity; capacity <= 3; ++capacity) {
    auto policy = MakePolicy(name, capacity);
    ASSERT_NE(policy, nullptr) << name << " @ " << capacity;
    for (const ObjectId id : trace.requests) {
      policy->Access(id);
      policy->CheckInvariants();
      ASSERT_LE(policy->size(), capacity) << name;
    }
  }
}

std::vector<std::string> PoliciesWithoutBelady() {
  std::vector<std::string> names;
  for (const std::string& name : KnownPolicyNames()) {
    if (name != "belady") {
      names.push_back(name);
    }
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, TinyCapacityTest, ::testing::ValuesIn(PoliciesWithoutBelady()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace qdlp
