// End-to-end qdlpd tests over real loopback sockets: basic ops,
// pipelining, error handling, and the ISSUE acceptance differential —
// the same operation sequence driven over the wire and in-process must
// leave byte-identical CacheStats.

#include "src/server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/concurrent/concurrent_cache.h"
#include "src/core/cache_api.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/util/random.h"
#include "src/util/zipf.h"

namespace qdlp {
namespace {

QdlpdOptions SmallServerOptions() {
  QdlpdOptions options;
  options.port = 0;  // ephemeral
  options.num_workers = 1;
  options.cache.capacity = 1024;
  options.cache.num_stripes = 8;
  options.cache.num_shards = 1;
  options.cache.value_arena_bytes = 4 << 20;
  options.cache.max_value_len = 64 << 10;
  return options;
}

class ServerE2eTest : public ::testing::Test {
 protected:
  void StartServer(const QdlpdOptions& options) {
    server_ = std::make_unique<QdlpdServer>(options);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
  }

  std::unique_ptr<QdlpdServer> server_;
};

TEST_F(ServerE2eTest, PingAndStats) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  EXPECT_TRUE(client.Ping());
  CacheStats stats;
  ASSERT_TRUE(client.GetStats(&stats));
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.size, 0u);
}

TEST_F(ServerE2eTest, GetSetDeleteOverLoopback) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  std::string value;
  EXPECT_EQ(client.Get(1, &value), Status::kMiss);
  EXPECT_EQ(client.Set(1, /*ttl_seconds=*/0, "hello over the wire"),
            Status::kOk);
  EXPECT_EQ(client.Get(1, &value), Status::kOk);
  EXPECT_EQ(value, "hello over the wire");

  // Binary-safe values, including NULs and a multi-KiB payload.
  std::string binary(4096, '\0');
  for (size_t i = 0; i < binary.size(); ++i) {
    binary[i] = static_cast<char>(i * 31);
  }
  EXPECT_EQ(client.Set(2, 0, binary), Status::kOk);
  EXPECT_EQ(client.Get(2, &value), Status::kOk);
  EXPECT_EQ(value, binary);

  EXPECT_EQ(client.Delete(1), Status::kOk);
  EXPECT_EQ(client.Delete(1), Status::kMiss);
  EXPECT_EQ(client.Get(1, &value), Status::kMiss);

  CacheStats stats;
  ASSERT_TRUE(client.GetStats(&stats));
  EXPECT_EQ(stats.size, 1u);  // only key 2 remains
  server_->cache().CheckInvariants();
}

TEST_F(ServerE2eTest, PipelinedBatchPreservesOrder) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  // Fewer keys than the 10% probation ring (102 slots at capacity 1024):
  // a never-reaccessed probation entry is quick-demoted once the ring
  // wraps — correct QD behavior, but this test is about wire ordering.
  constexpr ObjectId kKeys = 80;
  for (ObjectId key = 0; key < kKeys; ++key) {
    AppendSetRequest(&client.request_buffer(), key, 0,
                     "v" + std::to_string(key));
  }
  for (ObjectId key = 0; key < kKeys; ++key) {
    AppendGetRequest(&client.request_buffer(), key);
  }
  std::vector<OwnedFrame> responses;
  ASSERT_TRUE(client.Exchange(2 * kKeys, &responses));
  ASSERT_EQ(responses.size(), 2 * kKeys);
  for (ObjectId key = 0; key < kKeys; ++key) {
    EXPECT_EQ(responses[key].opcode, Op::kSet);
    EXPECT_EQ(responses[key].status, Status::kOk);
    EXPECT_EQ(responses[key].key, key);
    const OwnedFrame& get = responses[kKeys + key];
    EXPECT_EQ(get.opcode, Op::kGet);
    EXPECT_EQ(get.status, Status::kOk);
    EXPECT_EQ(get.key, key);
    EXPECT_EQ(get.body, "v" + std::to_string(key));
  }
}

// The acceptance differential: one worker, one connection, and an
// identically-configured in-process Cache replay the same zipf-skewed
// get/set/delete sequence. Every CacheStats counter must match exactly —
// the wire adds no accesses, drops none, and reorders nothing.
TEST_F(ServerE2eTest, LoopbackMatchesInProcessStats) {
  const QdlpdOptions options = SmallServerOptions();
  StartServer(options);
  std::unique_ptr<Cache> local = MakeCache(options.cache);
  ASSERT_NE(local, nullptr);

  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  Rng rng(0xD1FFull);
  ZipfSampler zipf(/*n=*/4096, /*skew=*/0.9);
  for (int i = 0; i < 5000; ++i) {
    const ObjectId key = zipf.Sample(rng);
    const int op = static_cast<int>(rng.NextBounded(10));
    if (op < 7) {
      // GET; on miss, SET (the classic demand-fill loop).
      std::string wire_value;
      const bool wire_hit = client.Get(key, &wire_value) == Status::kOk;
      std::string local_value;
      const bool local_hit = local->Get(key, &local_value);
      ASSERT_EQ(wire_hit, local_hit) << "op " << i << " key " << key;
      ASSERT_EQ(wire_value, local_value);
      if (!wire_hit) {
        const std::string value = "fill" + std::to_string(key);
        ASSERT_EQ(client.Set(key, 0, value), Status::kOk);
        ASSERT_EQ(local->Set(key, value, 0), Cache::SetStatus::kOk);
      }
    } else if (op < 9) {
      const std::string value =
          "v" + std::to_string(key) + std::string(key % 200, 'z');
      ASSERT_EQ(client.Set(key, 0, value) == Status::kOk,
                local->Set(key, value, 0) == Cache::SetStatus::kOk);
    } else {
      ASSERT_EQ(client.Delete(key) == Status::kOk, local->Delete(key))
          << "op " << i << " key " << key;
    }
  }

  CacheStats wire_stats;
  ASSERT_TRUE(client.GetStats(&wire_stats));
  const CacheStats local_stats = local->Stats();
  size_t count = 0;
  const StatsWireField* fields = StatsWireFields(&count);
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(wire_stats.*fields[i].member, local_stats.*fields[i].member)
        << fields[i].key;
  }
  server_->cache().CheckInvariants();
  local->CheckInvariants();
}

TEST_F(ServerE2eTest, MalformedFrameGetsBadRequestThenClose) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  // A frame with a hostile body_len. The server answers kBadRequest and
  // closes; the client's next exchange fails.
  std::string& buffer = client.request_buffer();
  AppendGetRequest(&buffer, 1);
  buffer[0] = '\xFF';
  buffer[1] = '\xFF';
  buffer[2] = '\xFF';
  buffer[3] = '\x7F';
  std::vector<OwnedFrame> responses;
  ASSERT_TRUE(client.Exchange(1, &responses));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, Status::kBadRequest);
  EXPECT_FALSE(client.Ping());  // connection is gone

  // A fresh connection works — the server survived the bad client.
  QdlpdClient fresh;
  ASSERT_TRUE(fresh.Connect(server_->port()));
  EXPECT_TRUE(fresh.Ping());
}

TEST_F(ServerE2eTest, ShortSetBodyIsPerRequestErrorOnly) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  // Structurally valid SET frame whose body is too short for the ttl word:
  // semantically rejected, but the connection survives.
  AppendFrame(&client.request_buffer(), Op::kSet, Status::kOk, /*key=*/9,
              "ab", 2);
  std::vector<OwnedFrame> responses;
  ASSERT_TRUE(client.Exchange(1, &responses));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, Status::kBadRequest);
  EXPECT_TRUE(client.Ping());  // same connection still serves
}

TEST_F(ServerE2eTest, OversizedValueIsRejectedAsTooLarge) {
  QdlpdOptions options = SmallServerOptions();
  options.cache.max_value_len = 128;
  StartServer(options);
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  EXPECT_EQ(client.Set(1, 0, std::string(129, 'x')), Status::kTooLarge);
  EXPECT_EQ(client.Set(1, 0, std::string(128, 'x')), Status::kOk);
  std::string value;
  EXPECT_EQ(client.Get(1, &value), Status::kOk);
  EXPECT_EQ(value.size(), 128u);
}

TEST_F(ServerE2eTest, ReservedKeysAreBadRequestsNotCorruption) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  ASSERT_EQ(client.Set(1, 0, "live"), Status::kOk);

  // ~0 and ~0-1 are the striped index's empty/tombstone slot encodings;
  // the wire must never let them reach the cache (a DELETE of ~0 would
  // free a sentinel slot in a release build). Each is a per-request
  // kBadRequest — the connection survives.
  const ObjectId empty_key = ~ObjectId{0};
  const ObjectId tombstone_key = ~ObjectId{0} - 1;
  std::string value;
  for (const ObjectId key : {empty_key, tombstone_key}) {
    EXPECT_EQ(client.Get(key, &value), Status::kBadRequest);
    EXPECT_EQ(client.Set(key, 0, "x"), Status::kBadRequest);
    EXPECT_EQ(client.Delete(key), Status::kBadRequest);
  }

  // Same connection still serves, and the index was not disturbed.
  EXPECT_EQ(client.Get(1, &value), Status::kOk);
  EXPECT_EQ(value, "live");
  CacheStats stats;
  ASSERT_TRUE(client.GetStats(&stats));
  EXPECT_EQ(stats.size, 1u);
  server_->cache().CheckInvariants();
}

TEST_F(ServerE2eTest, HalfCloseDeliversAllPipelinedResponses) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  // One max-size value; 64 pipelined GETs of it build ~4 MiB of
  // responses, well past the server's 1 MiB output high-water mark — the
  // server must pause reading, flush as the client drains, observe the
  // half-close, and still deliver every response before closing.
  const std::string big(64 << 10, 'q');
  ASSERT_EQ(client.Set(5, 0, big), Status::kOk);
  constexpr size_t kGets = 64;
  for (size_t i = 0; i < kGets; ++i) {
    AppendGetRequest(&client.request_buffer(), 5);
  }
  ASSERT_TRUE(client.Flush());
  client.ShutdownWrites();
  std::vector<OwnedFrame> responses;
  ASSERT_TRUE(client.Exchange(kGets, &responses));
  ASSERT_EQ(responses.size(), kGets);
  for (const OwnedFrame& response : responses) {
    EXPECT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.body.size(), big.size());
  }
  // After the drain the server closes its side: EOF, not a hang.
  std::vector<OwnedFrame> none;
  EXPECT_FALSE(client.Exchange(1, &none));
  // The server itself is unaffected.
  QdlpdClient fresh;
  ASSERT_TRUE(fresh.Connect(server_->port()));
  EXPECT_TRUE(fresh.Ping());
}

TEST_F(ServerE2eTest, ManyConnectionsAcrossWorkers) {
  QdlpdOptions options = SmallServerOptions();
  options.num_workers = 2;
  StartServer(options);
  std::vector<std::unique_ptr<QdlpdClient>> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(std::make_unique<QdlpdClient>());
    ASSERT_TRUE(clients.back()->Connect(server_->port())) << i;
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(clients[i]->Set(static_cast<ObjectId>(i), 0,
                              "conn" + std::to_string(i)),
              Status::kOk);
  }
  for (int i = 0; i < 8; ++i) {
    std::string value;
    // Read a key written on a different connection (and possibly worker).
    const int other = (i + 3) % 8;
    ASSERT_EQ(clients[i]->Get(static_cast<ObjectId>(other), &value),
              Status::kOk);
    EXPECT_EQ(value, "conn" + std::to_string(other));
  }
  server_->cache().CheckInvariants();
}

// A TTL clock both engines of the zero-copy test share, stepped by hand.
std::atomic<uint64_t> g_fake_now{1000};
uint64_t FakeNow() { return g_fake_now.load(); }

// One wire request and the reply the in-process engine gives to it.
struct ExpectedReply {
  Op opcode;
  Status status;
  ObjectId key;
  std::string body;
};

// Zero-copy GET: one pipelined batch crossing several prefetch windows and
// 64 KiB read() chunks, interleaving SET, overwrite, DELETE and GET with
// hit, miss, no-value and expired outcomes over every value-length edge.
// Each reply must equal, byte for byte, what Cache::Get (or Set/Delete) of
// an identically configured in-process engine returns at the same point
// of the same sequence.
TEST_F(ServerE2eTest, ZeroCopyGetRepliesMatchInProcessGet) {
  QdlpdOptions options = SmallServerOptions();
  options.cache.max_value_len = kMaxValueLen;
  options.cache.value_arena_bytes = 32 << 20;
  options.cache.now_fn = &FakeNow;
  g_fake_now = 1000;
  StartServer(options);
  std::unique_ptr<Cache> local = MakeCache(options.cache);
  ASSERT_NE(local, nullptr);
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  const auto value_for = [](ObjectId key, size_t len, int version) {
    std::string value(len, '\0');
    for (size_t i = 0; i < len; ++i) {
      value[i] = static_cast<char>(key * 131 + i * 7 + version * 17);
    }
    return value;
  };
  std::string& wire = client.request_buffer();
  std::vector<ExpectedReply> expected;
  const auto get = [&](ObjectId key) {
    AppendGetRequest(&wire, key);
    std::string value;
    const bool hit = local->Get(key, &value);
    expected.push_back(
        {Op::kGet, hit ? Status::kOk : Status::kMiss, key, value});
  };
  const auto set = [&](ObjectId key, uint32_t ttl, const std::string& value) {
    AppendSetRequest(&wire, key, ttl, value);
    const Cache::SetStatus status = local->Set(key, value, ttl);
    ASSERT_EQ(status, Cache::SetStatus::kOk) << key;
    expected.push_back({Op::kSet, Status::kOk, key, ""});
  };
  const auto del = [&](ObjectId key) {
    AppendDeleteRequest(&wire, key);
    expected.push_back(
        {Op::kDelete, local->Delete(key) ? Status::kOk : Status::kMiss, key,
         ""});
  };
  const auto exchange = [&] {
    std::vector<OwnedFrame> replies;
    ASSERT_TRUE(client.Exchange(expected.size(), &replies));
    ASSERT_EQ(replies.size(), expected.size());
    for (size_t i = 0; i < replies.size(); ++i) {
      EXPECT_EQ(replies[i].opcode, expected[i].opcode) << "reply " << i;
      EXPECT_EQ(replies[i].status, expected[i].status) << "reply " << i;
      EXPECT_EQ(replies[i].key, expected[i].key) << "reply " << i;
      ASSERT_EQ(replies[i].body, expected[i].body) << "reply " << i;
    }
    expected.clear();
  };

  // Setup: keys 200..209 get a 5 s ttl, and keys 300..304 are resident
  // with no value committed (metadata admission) on both engines.
  for (ObjectId key = 200; key < 210; ++key) {
    set(key, /*ttl=*/5, value_for(key, 9 + key % 3, 0));
  }
  exchange();
  for (ObjectId key = 300; key < 305; ++key) {
    dynamic_cast<ConcurrentCache&>(server_->cache()).Admit(key);
    dynamic_cast<ConcurrentCache&>(*local).Admit(key);
  }
  ASSERT_EQ(local->Stats().size, 15u);
  g_fake_now = 1010;  // the ttl keys are now expired

  const std::vector<size_t> lengths = {0, 1, 7, 8, 9, 63, 64, 65, 8191};
  for (size_t i = 0; i < lengths.size(); ++i) {
    const ObjectId key = 10 + i;
    get(key);  // miss
    set(key, 0, value_for(key, lengths[i], 1));
    get(key);  // hit
    // Overwrite with the next length: a chunk of a different class.
    set(key, 0, value_for(key, lengths[(i + 1) % lengths.size()], 2));
    get(key);
    get(200 + i);  // expired
    get(300 + i % 5);  // resident, no value
  }
  // Filler GETs over the keys above, so the batch spans several windows.
  for (int round = 0; round < 8; ++round) {
    for (size_t i = 0; i < lengths.size(); ++i) {
      get(10 + i);
    }
    get(999);  // never stored
  }
  for (size_t i = 0; i < lengths.size(); i += 2) {
    del(10 + i);
    get(10 + i);  // deleted: miss
    del(10 + i);  // already gone
  }
  // Largest value last: its 4 MiB reply crosses the output high-water
  // mark, and the requests behind it are small enough to sit buffered.
  set(50, 0, value_for(50, kMaxValueLen, 3));
  get(50);
  set(50, 0, value_for(50, 65, 4));
  get(50);
  del(50);
  get(50);
  ASSERT_GT(wire.size(), size_t{64} << 10);
  ASSERT_GT(expected.size(), 4 * size_t{32});
  exchange();

  // The expired GETs reaped their keys on both sides alike.
  CacheStats wire_stats;
  ASSERT_TRUE(client.GetStats(&wire_stats));
  const CacheStats local_stats = local->Stats();
  size_t count = 0;
  const StatsWireField* fields = StatsWireFields(&count);
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(wire_stats.*fields[i].member, local_stats.*fields[i].member)
        << fields[i].key;
  }
  server_->cache().CheckInvariants();
}

// The server face and the replay face serve the same engine: after wire
// traffic, the in-process handle sees the wire's writes.
TEST_F(ServerE2eTest, InProcessHandleSharesTheEngine) {
  StartServer(SmallServerOptions());
  QdlpdClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  ASSERT_EQ(client.Set(77, 0, "shared"), Status::kOk);
  std::string value;
  EXPECT_TRUE(server_->cache().Get(77, &value));
  EXPECT_EQ(value, "shared");
}

}  // namespace
}  // namespace qdlp
