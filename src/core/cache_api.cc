#include "src/core/cache_api.h"

#include <utility>

#include "src/concurrent/concurrent_clock.h"
#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/concurrent/concurrent_s3fifo.h"
#include "src/concurrent/sharded_lru.h"
#include "src/core/policy_factory.h"
#include "src/policies/eviction_policy.h"
#include "src/util/check.h"

namespace qdlp {

namespace {

// Sequential EvictionPolicy behind the unified face: Get/Set/GetOrAdmit
// all reduce to the policy's get-or-admit Access (bytes and ttl have
// nowhere to live), Delete to Remove where the policy supports it. The
// CacheObservable surface forwards, so Stats()/CheckInvariants() mean
// exactly what they mean on the policy.
class PolicyCacheAdapter : public Cache {
 public:
  explicit PolicyCacheAdapter(std::unique_ptr<EvictionPolicy> policy)
      : policy_(std::move(policy)) {}

  bool Get(ObjectId key, std::string* value) override {
    if (value != nullptr) {
      value->clear();
    }
    return policy_->Access(key);
  }

  SetStatus Set(ObjectId key, std::string_view value,
                uint32_t ttl_seconds) override {
    (void)value;
    (void)ttl_seconds;
    if (!policy_->Contains(key)) {
      policy_->Access(key);
    }
    return SetStatus::kOk;
  }

  bool Delete(ObjectId key) override { return policy_->Remove(key); }

  bool GetOrAdmit(ObjectId key) override { return policy_->Access(key); }

  bool thread_safe() const override { return false; }

  std::string_view name() const override { return policy_->name(); }
  size_t capacity() const override { return policy_->capacity(); }
  CacheStats Stats() const override { return policy_->Stats(); }
  size_t ApproxMetadataBytes() const override {
    return policy_->ApproxMetadataBytes();
  }
  void CheckInvariants() override { policy_->CheckInvariants(); }

 private:
  std::unique_ptr<EvictionPolicy> policy_;
};

}  // namespace

std::unique_ptr<Cache> MakeCache(const CacheConfig& config) {
  QDLP_CHECK(config.capacity >= 1);
  if (config.policy == "concurrent-qdlp-fifo") {
    return std::make_unique<ConcurrentQdLpFifo>(
        config.capacity, config.num_stripes, config.num_shards,
        QdlpValueOptions{config.value_arena_bytes, config.max_value_len,
                         config.now_fn});
  }
  // Only the qdlp engine is offered a value store; any other policy name
  // with a value arena is a configuration error, reported as unknown.
  if (config.value_arena_bytes > 0) {
    return nullptr;
  }
  if (config.policy == "concurrent-clock") {
    return std::make_unique<ConcurrentClockCache>(
        config.capacity, /*bits=*/2, config.num_stripes, config.num_shards);
  }
  if (config.policy == "concurrent-s3fifo") {
    return std::make_unique<ConcurrentS3FifoCache>(
        config.capacity, /*small_fraction=*/0.10, /*ghost_factor=*/0.9,
        config.num_stripes, config.num_shards);
  }
  if (config.policy == "global-lock-lru") {
    return std::make_unique<GlobalLockLruCache>(config.capacity);
  }
  if (config.policy == "sharded-lru") {
    return std::make_unique<ShardedLruCache>(config.capacity,
                                             config.num_shards);
  }
  std::unique_ptr<EvictionPolicy> policy =
      MakePolicy(config.policy, config.capacity, config.trace);
  if (policy == nullptr) {
    return nullptr;
  }
  return std::make_unique<PolicyCacheAdapter>(std::move(policy));
}

uint64_t ReplayTrace(Cache& cache, const std::vector<ObjectId>& ids) {
  uint64_t hits = 0;
  for (const ObjectId id : ids) {
    hits += cache.GetOrAdmit(id) ? 1 : 0;
  }
  return hits;
}

}  // namespace qdlp
