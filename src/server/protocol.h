// qdlpd wire protocol: compact binary get/set/delete frames.
//
// Every request and response is one length-prefixed frame with a fixed
// 16-byte little-endian header followed by an optional body:
//
//   offset  size  field
//        0     4  body_len   (u32; bytes following the header)
//        4     1  opcode     (Op)
//        5     1  status     (Status; 0 in requests, set in responses)
//        6     2  reserved   (must be 0)
//        8     8  key        (ObjectId)
//
//   GET    request: empty body.        response: value bytes on kOk,
//                                                empty on kMiss.
//                   Keys >= kFirstReservedKey (the index's sentinel
//                   values) are rejected with kBadRequest on every keyed
//                   opcode; the connection stays open.
//   SET    request: [u32 ttl_seconds][value bytes] (ttl 0 = no expiry).
//                                      response: empty body.
//   DELETE request: empty body.        response: empty (kOk / kMiss).
//   STATS  request: empty body.        response: u32 field count + that
//                                      many u64 CacheStats counters in
//                                      StatsWireFields() order.
//   PING   request: empty body.        response: empty (kOk).
//
// Framing is self-describing, so any number of frames can be pipelined on
// one connection; the server drains every complete frame it has buffered
// per epoll wakeup (the wire-level analogue of the BP-Wrapper insert
// batching) and writes the responses back in order. Parse errors are
// unrecoverable for the connection: the server answers kBadRequest and
// closes, because after a malformed header the frame boundary is lost.
//
// The parser is incremental (kNeedMore on a partial frame) and hardened
// against hostile input: body_len is capped (kMaxBodyLen) before any
// allocation, reserved bytes and opcode/status ranges are validated, and
// all multi-byte fields are assembled byte-by-byte so alignment and host
// endianness never matter. fuzz_server_protocol drives it with arbitrary
// bytes; docs/SERVER.md is the human-readable spec.

#ifndef QDLP_SRC_SERVER_PROTOCOL_H_
#define QDLP_SRC_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/obs/cache_stats.h"
#include "src/trace/trace.h"

namespace qdlp {

enum class Op : uint8_t {
  kGet = 1,
  kSet = 2,
  kDelete = 3,
  kStats = 4,
  kPing = 5,
};

enum class Status : uint8_t {
  kOk = 0,          // hit / stored / deleted
  kMiss = 1,        // GET miss, DELETE of an absent key
  kNoSpace = 2,     // SET could not allocate value space
  kBadRequest = 3,  // malformed frame (connection is closed after this)
  kTooLarge = 4,    // SET value exceeds the server's max value length
};

constexpr size_t kFrameHeaderLen = 16;
// Largest body either side accepts: a 4 MiB value plus the SET ttl word.
// Checked before any buffering, so a hostile length prefix cannot force an
// allocation.
constexpr size_t kMaxValueLen = 4u << 20;
constexpr size_t kMaxBodyLen = kMaxValueLen + 4;
constexpr size_t kMaxFrameLen = kFrameHeaderLen + kMaxBodyLen;

// Keys at or above this value are reserved: the cache's lock-free index
// (striped_index.h) uses the top two u64 values as empty/tombstone slot
// sentinels, so they can never name an object. The server answers keyed
// requests (GET/SET/DELETE) carrying a reserved key with kBadRequest and
// keeps the connection (framing is intact — this is a semantic error).
// server.cc static_asserts this against StripedAtomicIndex::kTombstoneKey.
constexpr ObjectId kFirstReservedKey = ~ObjectId{0} - 1;

// One decoded frame. `body` points into the caller's buffer (valid until
// the caller consumes those bytes).
struct Frame {
  Op opcode = Op::kPing;
  Status status = Status::kOk;
  ObjectId key = 0;
  const uint8_t* body = nullptr;
  size_t body_len = 0;
};

enum class ParseStatus {
  kNeedMore,  // buffer holds a prefix of a valid frame; read more bytes
  kFrame,     // *out is a complete frame; *consumed bytes were used
  kError,     // malformed header; the connection cannot be resynchronized
};

namespace protocol_internal {

inline uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

inline uint64_t LoadU64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

inline void StoreU32(char* p, uint32_t v) {
  p[0] = static_cast<char>(v & 0xFF);
  p[1] = static_cast<char>((v >> 8) & 0xFF);
  p[2] = static_cast<char>((v >> 16) & 0xFF);
  p[3] = static_cast<char>((v >> 24) & 0xFF);
}

inline void AppendU32(std::string* out, uint32_t v) {
  char bytes[4];
  StoreU32(bytes, v);
  out->append(bytes, 4);
}

inline void AppendU64(std::string* out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

// Appends a frame header in one append.
inline void AppendHeader(std::string* out, Op opcode, Status status,
                         ObjectId key, size_t body_len) {
  char header[kFrameHeaderLen];
  StoreU32(header, static_cast<uint32_t>(body_len));
  header[4] = static_cast<char>(opcode);
  header[5] = static_cast<char>(status);
  header[6] = 0;
  header[7] = 0;
  StoreU32(header + 8, static_cast<uint32_t>(key));
  StoreU32(header + 12, static_cast<uint32_t>(key >> 32));
  out->append(header, kFrameHeaderLen);
}

}  // namespace protocol_internal

// Incremental parse of the first frame in data[0, size). On kFrame,
// *consumed is the frame's total length and out->body points into `data`.
inline ParseStatus ParseFrame(const uint8_t* data, size_t size, Frame* out,
                              size_t* consumed) {
  using protocol_internal::LoadU32;
  using protocol_internal::LoadU64;
  if (size < kFrameHeaderLen) {
    // Validate what we do have: a doomed header should fail as early as
    // possible instead of stalling the connection waiting for bytes that
    // can only complete a malformed frame.
    if (size >= 4 && LoadU32(data) > kMaxBodyLen) {
      return ParseStatus::kError;
    }
    if (size >= 5 && (data[4] < static_cast<uint8_t>(Op::kGet) ||
                      data[4] > static_cast<uint8_t>(Op::kPing))) {
      return ParseStatus::kError;
    }
    return ParseStatus::kNeedMore;
  }
  const uint32_t body_len = LoadU32(data);
  if (body_len > kMaxBodyLen) {
    return ParseStatus::kError;
  }
  const uint8_t opcode = data[4];
  if (opcode < static_cast<uint8_t>(Op::kGet) ||
      opcode > static_cast<uint8_t>(Op::kPing)) {
    return ParseStatus::kError;
  }
  const uint8_t status = data[5];
  if (status > static_cast<uint8_t>(Status::kTooLarge)) {
    return ParseStatus::kError;
  }
  if (data[6] != 0 || data[7] != 0) {
    return ParseStatus::kError;
  }
  if (size < kFrameHeaderLen + body_len) {
    return ParseStatus::kNeedMore;
  }
  out->opcode = static_cast<Op>(opcode);
  out->status = static_cast<Status>(status);
  out->key = LoadU64(data + 8);
  out->body = data + kFrameHeaderLen;
  out->body_len = body_len;
  *consumed = kFrameHeaderLen + body_len;
  return ParseStatus::kFrame;
}

inline void AppendFrame(std::string* out, Op opcode, Status status,
                        ObjectId key, const void* body, size_t body_len) {
  protocol_internal::AppendHeader(out, opcode, status, key, body_len);
  if (body_len != 0) {
    out->append(static_cast<const char*>(body), body_len);
  }
}

// Rewrites the status and body_len of the frame whose header starts at
// (*out)[offset]: a response written header first, with its body then
// appended in place behind it (qdlpd's zero-copy GET).
inline void PatchFrameHeader(std::string* out, size_t offset, Status status,
                             size_t body_len) {
  char* header = out->data() + offset;
  protocol_internal::StoreU32(header, static_cast<uint32_t>(body_len));
  header[5] = static_cast<char>(status);
}

inline void AppendGetRequest(std::string* out, ObjectId key) {
  AppendFrame(out, Op::kGet, Status::kOk, key, nullptr, 0);
}

inline void AppendSetRequest(std::string* out, ObjectId key,
                             uint32_t ttl_seconds, const std::string& value) {
  protocol_internal::AppendHeader(out, Op::kSet, Status::kOk, key,
                                  4 + value.size());
  protocol_internal::AppendU32(out, ttl_seconds);
  out->append(value);
}

inline void AppendDeleteRequest(std::string* out, ObjectId key) {
  AppendFrame(out, Op::kDelete, Status::kOk, key, nullptr, 0);
}

inline void AppendStatsRequest(std::string* out) {
  AppendFrame(out, Op::kStats, Status::kOk, 0, nullptr, 0);
}

inline void AppendPingRequest(std::string* out) {
  AppendFrame(out, Op::kPing, Status::kOk, 0, nullptr, 0);
}

// CacheStats fields on the wire, in declaration order (cache_stats.h).
// Kept in sync with BenchStatsFields() (bench/bench_json.h) by
// server_protocol_test.
struct StatsWireField {
  const char* key;
  uint64_t CacheStats::*member;
};

inline const StatsWireField* StatsWireFields(size_t* count) {
  static const StatsWireField fields[] = {
      {"requests", &CacheStats::requests},
      {"hits", &CacheStats::hits},
      {"misses", &CacheStats::misses},
      {"inserts", &CacheStats::inserts},
      {"evictions", &CacheStats::evictions},
      {"promotions", &CacheStats::promotions},
      {"demotions", &CacheStats::demotions},
      {"ghost_hits", &CacheStats::ghost_hits},
      {"lock_acquisitions", &CacheStats::lock_acquisitions},
      {"lock_failures", &CacheStats::lock_failures},
      {"buffer_drops", &CacheStats::buffer_drops},
      {"cross_shard_demotions", &CacheStats::cross_shard_demotions},
      {"drain_batch_le8", &CacheStats::drain_batch_le8},
      {"drain_batch_le64", &CacheStats::drain_batch_le64},
      {"drain_batch_gt64", &CacheStats::drain_batch_gt64},
      {"size", &CacheStats::size},
      {"probation_size", &CacheStats::probation_size},
      {"main_size", &CacheStats::main_size},
      {"ghost_size", &CacheStats::ghost_size},
  };
  *count = sizeof(fields) / sizeof(fields[0]);
  return fields;
}

// STATS response body: u32 field count, then count x u64 counters. The
// explicit count lets an old client read a newer server's prefix.
inline std::string EncodeStatsBody(const CacheStats& stats) {
  size_t count = 0;
  const StatsWireField* fields = StatsWireFields(&count);
  std::string body;
  protocol_internal::AppendU32(&body, static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    protocol_internal::AppendU64(&body, stats.*fields[i].member);
  }
  return body;
}

inline bool DecodeStatsBody(const uint8_t* body, size_t body_len,
                            CacheStats* stats) {
  using protocol_internal::LoadU32;
  using protocol_internal::LoadU64;
  if (body_len < 4) {
    return false;
  }
  const uint32_t wire_count = LoadU32(body);
  if (body_len != 4 + static_cast<size_t>(wire_count) * 8) {
    return false;
  }
  size_t count = 0;
  const StatsWireField* fields = StatsWireFields(&count);
  *stats = CacheStats{};
  const size_t readable = wire_count < count ? wire_count : count;
  for (size_t i = 0; i < readable; ++i) {
    stats->*fields[i].member = LoadU64(body + 4 + i * 8);
  }
  return true;
}

}  // namespace qdlp

#endif  // QDLP_SRC_SERVER_PROTOCOL_H_
