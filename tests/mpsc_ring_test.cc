// MpscRing, each eviction domain's insert ring: bounded-queue semantics,
// FIFO order per producer, and multi-producer stress where no pushed value
// may be lost or duplicated (run under the tsan preset too; see
// docs/TESTING.md).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/concurrent/mpsc_ring.h"

namespace qdlp {
namespace {

TEST(MpscRingTest, PushPopFifoOrderSingleThread) {
  MpscRing ring(8);
  uint64_t value = 0;
  EXPECT_FALSE(ring.TryPop(&value));
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.TryPush(100 + i));
  }
  EXPECT_FALSE(ring.TryPush(999)) << "ring should be full";
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.TryPop(&value));
    EXPECT_EQ(value, 100 + i);
  }
  EXPECT_FALSE(ring.TryPop(&value));
}

TEST(MpscRingTest, WrapsAroundManyLaps) {
  MpscRing ring(4);
  uint64_t value = 0;
  for (uint64_t lap = 0; lap < 1000; ++lap) {
    EXPECT_TRUE(ring.TryPush(lap * 2));
    EXPECT_TRUE(ring.TryPush(lap * 2 + 1));
    ASSERT_TRUE(ring.TryPop(&value));
    EXPECT_EQ(value, lap * 2);
    ASSERT_TRUE(ring.TryPop(&value));
    EXPECT_EQ(value, lap * 2 + 1);
  }
  EXPECT_FALSE(ring.TryPop(&value));
}

TEST(MpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpscRing(1).slot_count(), 4u);
  EXPECT_EQ(MpscRing(5).slot_count(), 8u);
  EXPECT_EQ(MpscRing(64).slot_count(), 64u);
  EXPECT_GT(MpscRing(64).MemoryBytes(), 0u);
}

// Multiple producers push tagged sequences while one consumer drains
// concurrently; every accepted push must be popped exactly once and each
// producer's values must arrive in its own order.
TEST(MpscRingTest, MultiProducerNoLossNoDuplication) {
  MpscRing ring(64);
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 20000;

  std::vector<std::atomic<uint64_t>> accepted(kProducers);
  for (auto& counter : accepted) {
    counter.store(0);
  }
  std::atomic<int> done{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        // Tag: producer in the high bits, sequence in the low bits.
        const uint64_t value = (static_cast<uint64_t>(p) << 32) | i;
        if (ring.TryPush(value)) {
          accepted[p].fetch_add(1, std::memory_order_relaxed);
        }
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }

  // Single consumer: drain until all producers finished and the ring is dry.
  std::vector<uint64_t> popped_count(kProducers, 0);
  std::vector<uint64_t> last_seq(kProducers, 0);
  std::vector<bool> seen_any(kProducers, false);
  bool order_ok = true;
  while (true) {
    uint64_t value;
    if (ring.TryPop(&value)) {
      const int p = static_cast<int>(value >> 32);
      const uint64_t seq = value & 0xFFFFFFFFu;
      ASSERT_LT(p, kProducers);
      if (seen_any[p] && seq <= last_seq[p]) {
        order_ok = false;  // per-producer FIFO violated
      }
      seen_any[p] = true;
      last_seq[p] = seq;
      ++popped_count[p];
    } else if (done.load(std::memory_order_acquire) == kProducers) {
      if (!ring.TryPop(&value)) {
        break;
      }
      const int p = static_cast<int>(value >> 32);
      ++popped_count[p];
    }
  }
  for (auto& thread : producers) {
    thread.join();
  }
  EXPECT_TRUE(order_ok);
  uint64_t total_popped = 0;
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(popped_count[p], accepted[p].load()) << "producer " << p;
    total_popped += popped_count[p];
  }
  // On a single core a producer's whole loop can land in one timeslice with
  // the ring full (zero accepted), so only the total is guaranteed nonzero.
  EXPECT_GT(total_popped, 0u);
}

}  // namespace
}  // namespace qdlp
