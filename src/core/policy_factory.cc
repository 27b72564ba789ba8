#include "src/core/policy_factory.h"

#include <algorithm>
#include <cmath>

#include "src/core/s3fifo.h"
#include "src/core/sieve.h"
#include "src/policies/arc.h"
#include "src/policies/belady.h"
#include "src/policies/cacheus.h"
#include "src/policies/car.h"
#include "src/policies/clock.h"
#include "src/policies/clockpro.h"
#include "src/policies/fifo.h"
#include "src/policies/hyperbolic.h"
#include "src/policies/lazy_lru.h"
#include "src/policies/lecar.h"
#include "src/policies/lfu.h"
#include "src/policies/lhd.h"
#include "src/policies/lirs.h"
#include "src/policies/lru.h"
#include "src/policies/lruk.h"
#include "src/policies/mq.h"
#include "src/policies/random_policy.h"
#include "src/policies/slru.h"
#include "src/policies/twoq.h"
#include "src/policies/wtinylfu.h"
#include "src/util/check.h"

namespace qdlp {

namespace {

// The remap-invariant policies, over either index backing. Their
// decisions depend on ids solely through index lookups and list order —
// never on the id's value, hash, or hash-table iteration order — so a
// bijective remap to dense ids cannot change any eviction decision. This
// is the one place that holds their names and constructor arguments:
// MakeBase instantiates it over the flat index, MakeDensePolicy over the
// dense one. Policies that sample the index (random, lhd, hyperbolic, ...)
// or hash ids into sketches (wtinylfu) stay out even where a dense index
// would mechanically work.
template <typename IndexFactory>
std::unique_ptr<EvictionPolicy> MakeRemapInvariant(const std::string& name,
                                                   size_t capacity,
                                                   IndexFactory factory) {
  if (name == "fifo") {
    return std::make_unique<BasicFifoPolicy<IndexFactory>>(capacity, factory);
  }
  if (name == "lru") {
    return std::make_unique<BasicLruPolicy<IndexFactory>>(capacity, factory);
  }
  if (name == "fifo-reinsertion" || name == "clock" || name == "clock1") {
    return std::make_unique<BasicClockPolicy<IndexFactory>>(capacity, 1,
                                                            factory);
  }
  if (name == "clock2") {
    return std::make_unique<BasicClockPolicy<IndexFactory>>(capacity, 2,
                                                            factory);
  }
  if (name == "clock3") {
    return std::make_unique<BasicClockPolicy<IndexFactory>>(capacity, 3,
                                                            factory);
  }
  if (name == "sieve") {
    return std::make_unique<BasicSievePolicy<IndexFactory>>(capacity, factory);
  }
  if (name == "s3fifo") {
    return std::make_unique<BasicS3FifoPolicy<IndexFactory>>(capacity, 0.10,
                                                             0.9, factory);
  }
  if (name == "arc") {
    return std::make_unique<BasicArcPolicy<IndexFactory>>(capacity, 1.0, -1.0,
                                                          factory);
  }
  if (name == "arc-slow") {
    return std::make_unique<BasicArcPolicy<IndexFactory>>(capacity, 0.25, -1.0,
                                                          factory);
  }
  if (name == "arc-fixed") {
    return std::make_unique<BasicArcPolicy<IndexFactory>>(capacity, 1.0, 0.1,
                                                          factory);
  }
  if (name == "lirs") {
    return std::make_unique<BasicLirsPolicy<IndexFactory>>(capacity, 0.01, 3.0,
                                                           factory);
  }
  return nullptr;
}

// Every base (non-composed) policy over the flat index: the
// remap-invariant ones, then those only the flat index serves.
std::unique_ptr<EvictionPolicy> MakeBase(const std::string& name,
                                         size_t capacity,
                                         const std::vector<ObjectId>* trace) {
  if (auto policy = MakeRemapInvariant(name, capacity, FlatIndexFactory{})) {
    return policy;
  }
  if (name == "lfu") {
    return std::make_unique<LfuPolicy>(capacity);
  }
  if (name == "random") {
    return std::make_unique<RandomPolicy>(capacity);
  }
  if (name == "slru") {
    return std::make_unique<SlruPolicy>(capacity);
  }
  if (name == "2q") {
    return std::make_unique<TwoQPolicy>(capacity);
  }
  if (name == "car") {
    return std::make_unique<CarPolicy>(capacity);
  }
  if (name == "mq") {
    return std::make_unique<MqPolicy>(capacity);
  }
  if (name == "lru2") {
    return std::make_unique<LruKPolicy>(capacity, 2);
  }
  if (name == "wtinylfu") {
    return std::make_unique<WTinyLfuPolicy>(capacity);
  }
  if (name == "lru-batched") {
    return std::make_unique<BatchedPromotionLru>(capacity);
  }
  if (name == "lru-promote-old") {
    return std::make_unique<PromoteOldOnlyLru>(capacity);
  }
  if (name == "lecar") {
    return std::make_unique<LecarPolicy>(capacity);
  }
  if (name == "cacheus") {
    return std::make_unique<CacheusPolicy>(capacity);
  }
  if (name == "lhd") {
    return std::make_unique<LhdPolicy>(capacity);
  }
  if (name == "hyperbolic") {
    return std::make_unique<HyperbolicPolicy>(capacity);
  }
  if (name == "clockpro") {
    return std::make_unique<ClockProPolicy>(capacity);
  }
  if (name == "belady") {
    if (trace == nullptr) {
      return nullptr;
    }
    return std::make_unique<BeladyPolicy>(capacity, *trace);
  }
  return nullptr;
}

// Probation/main split for a QD composition. Shared by the flat and dense
// builders so the two variants are behaviorally identical.
size_t QdProbationCapacity(size_t total_capacity, double probation_fraction) {
  size_t probation = std::max<size_t>(
      1, static_cast<size_t>(std::llround(static_cast<double>(total_capacity) *
                                          probation_fraction)));
  return std::min(probation, total_capacity - 1);
}

// Splits a QD-composed name into its main-policy base and options:
// "qd-lp-fifo" is the paper's QD over 2-bit CLOCK, "qd-<base>" QD over any
// other base. Returns false for names that are not compositions.
bool ParseQdName(const std::string& name, std::string* base,
                 QdOptions* options) {
  if (name == "qd-lp-fifo") {
    *base = "clock2";
    options->name = name;
    return true;
  }
  if (name.rfind("qd-", 0) == 0) {
    *base = name.substr(3);
    return true;
  }
  return false;
}

// Wraps the main policy `make_main(main_capacity)` builds in a QD cache
// over `factory`'s index backing; nullptr when there is no such main.
template <typename IndexFactory, typename MakeMain>
std::unique_ptr<EvictionPolicy> ComposeQd(size_t total_capacity,
                                          const QdOptions& options,
                                          IndexFactory factory,
                                          MakeMain make_main) {
  QDLP_CHECK(total_capacity >= 2);
  QDLP_CHECK(options.probation_fraction > 0.0 && options.probation_fraction < 1.0);
  const size_t probation =
      QdProbationCapacity(total_capacity, options.probation_fraction);
  auto main = make_main(total_capacity - probation);
  if (main == nullptr) {
    return nullptr;
  }
  return std::make_unique<BasicQdCache<IndexFactory>>(
      probation, std::move(main), options, factory);
}

}  // namespace

std::unique_ptr<EvictionPolicy> MakeQdPolicy(const std::string& base_name,
                                             size_t total_capacity,
                                             const QdOptions& options,
                                             const std::vector<ObjectId>* trace) {
  if (base_name == "belady") {
    // Belady consumes the trace positionally; behind a QD filter its
    // next-use bookkeeping would desynchronize from the request stream.
    return nullptr;
  }
  return ComposeQd(total_capacity, options, FlatIndexFactory{},
                   [&](size_t main_capacity) {
                     return MakeBase(base_name, main_capacity, trace);
                   });
}

bool HasDenseVariant(const std::string& name) {
  // Universe 0 builds the dense variant without any per-id memory.
  return MakeDensePolicy(name, 2, 0) != nullptr;
}

std::unique_ptr<EvictionPolicy> MakeDensePolicy(const std::string& name,
                                                size_t capacity,
                                                uint64_t universe) {
  const DenseIndexFactory factory{universe};
  std::string base;
  QdOptions options;
  if (!ParseQdName(name, &base, &options)) {
    return MakeRemapInvariant(name, capacity, factory);
  }
  return ComposeQd(capacity, options, factory, [&](size_t main_capacity) {
    return MakeRemapInvariant(base, main_capacity, factory);
  });
}

std::unique_ptr<EvictionPolicy> MakePolicy(const std::string& name,
                                           size_t capacity,
                                           const std::vector<ObjectId>* trace) {
  std::string base;
  QdOptions options;
  if (ParseQdName(name, &base, &options)) {
    return MakeQdPolicy(base, capacity, options, trace);
  }
  return MakeBase(name, capacity, trace);
}

std::vector<std::string> KnownPolicyNames() {
  return {
      "fifo",        "lru",        "lfu",        "random",     "slru",
      "2q",          "arc",        "arc-slow",   "arc-fixed",  "car",
      "mq",          "lru2",       "wtinylfu",   "lru-batched",
      "lru-promote-old",           "lirs",       "lecar",      "cacheus",
      "lhd",         "hyperbolic", "belady",     "fifo-reinsertion",
      "clock2",      "clock3",     "clockpro",   "sieve",      "s3fifo",     "qd-lp-fifo",
      "qd-arc",      "qd-lirs",    "qd-lecar",   "qd-cacheus", "qd-lhd",
  };
}

}  // namespace qdlp
