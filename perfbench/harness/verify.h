// Output checks for the server workloads.
//
// Every value the loadgen stores is a pure function of (seed, key,
// version): its length is drawn from the workload's length range by a hash,
// and each 8-byte word encodes the key, the version and the word's index.
// A reply can therefore be checked exactly without keeping the bytes, and
// a torn value (words of two versions) or a value of the wrong key, version
// or length fails the check.
//
// Each connection is the only writer of the keys it owns, and qdlpd answers
// a connection's frames in order, so the connection's own model of each key
// decides every reply:
//   * a GET hit must carry the key's current version, and is a failure if
//     the connection never stored the key or deleted it with no SET since;
//   * a DELETE that finds a key the connection had deleted is a stale hit;
//   * kNoSpace, kTooLarge and kBadRequest replies, a reply for another key
//     or opcode, and transport errors are failures.
// A miss is always allowed: the cache may have evicted the key.

#ifndef PERFBENCH_HARNESS_VERIFY_H_
#define PERFBENCH_HARNESS_VERIFY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/util/random.h"

namespace perfbench {

struct ValueSpec {
  uint64_t seed = 1;
  size_t min_len = 32;
  size_t max_len = 32;  // == min_len: fixed-size values

  // Log-uniform in [min_len, max_len], fixed by (seed, key, version).
  size_t Length(uint64_t key, uint32_t version) const {
    if (max_len <= min_len) {
      return min_len;
    }
    const uint64_t h = qdlp::SplitMix64(
        seed ^ qdlp::SplitMix64(key * 0x9E3779B97F4A7C15ULL + version));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    const double len = static_cast<double>(min_len) *
                       std::pow(static_cast<double>(max_len) /
                                    static_cast<double>(min_len),
                                u);
    return std::min(max_len, static_cast<size_t>(len));
  }

  uint64_t Word(uint64_t key, uint32_t version, size_t index) const {
    return (key << 24 ^ version) ^ (seed + index) * 0xD6E8FEB86659FD93ULL;
  }

  void Fill(uint64_t key, uint32_t version, std::string* out) const {
    const size_t len = Length(key, version);
    out->resize(len);
    size_t off = 0;
    for (size_t i = 0; off < len; off += 8, ++i) {
      const uint64_t word = Word(key, version, i);
      std::memcpy(out->data() + off, &word, std::min<size_t>(8, len - off));
    }
  }

  bool Matches(uint64_t key, uint32_t version, const std::string& value) const {
    const size_t len = Length(key, version);
    if (value.size() != len) {
      return false;
    }
    size_t off = 0;
    size_t i = 0;
    for (; off + 8 <= len; off += 8, ++i) {
      uint64_t got;
      std::memcpy(&got, value.data() + off, 8);
      if (got != Word(key, version, i)) {
        return false;
      }
    }
    const uint64_t word = Word(key, version, i);
    return std::memcmp(value.data() + off, &word, len - off) == 0;
  }
};

enum class Failure {
  kWrongValue,       // wrong or torn bytes, or wrong length
  kStaleAfterDelete, // hit after this connection's DELETE, no SET since
  kNeverWritten,     // hit on a key this connection never stored
  kBadStatus,        // kNoSpace, kTooLarge or kBadRequest
  kMismatchedReply,  // reply for another key or opcode
  kTransport,        // connection error
  kCount,
};

inline const char* FailureName(Failure f) {
  switch (f) {
    case Failure::kWrongValue: return "wrong_value";
    case Failure::kStaleAfterDelete: return "stale_after_delete";
    case Failure::kNeverWritten: return "never_written";
    case Failure::kBadStatus: return "bad_status";
    case Failure::kMismatchedReply: return "mismatched_reply";
    case Failure::kTransport: return "transport";
    case Failure::kCount: break;
  }
  return "?";
}

// One connection's model of the keys it owns (key % conns == its index).
class KeyModel {
 public:
  // Keys are below `key_space`.
  KeyModel(const ValueSpec* values, size_t key_space, uint32_t conns)
      : values_(values), conns_(conns), states_(key_space / conns + 1) {}

  // The version the server holds once every reply so far is checked.
  uint32_t version(uint64_t key) const { return state(key).version; }
  uint32_t NextVersion(uint64_t key) const { return state(key).version + 1; }

  // Versions handed to SETs already sent: runs ahead of version() while
  // overwrites are in flight. A look-aside fill stores issued(); an
  // overwrite stores Issue(), a new version.
  uint32_t issued(uint64_t key) const { return state(key).issued; }
  uint32_t Issue(uint64_t key) { return ++state(key).issued; }

  // Reply checks. Each updates the model and returns false (counting the
  // failure) when the reply is wrong.
  bool OnGet(uint64_t key, const qdlp::OwnedFrame& reply) {
    if (reply.opcode != qdlp::Op::kGet || reply.key != key) {
      return Fail(Failure::kMismatchedReply);
    }
    if (reply.status == qdlp::Status::kMiss) {
      return true;
    }
    if (reply.status != qdlp::Status::kOk) {
      return Fail(Failure::kBadStatus);
    }
    return CheckHit(key, reply.body);
  }

  bool OnSet(uint64_t key, uint32_t version, const qdlp::OwnedFrame& reply) {
    if (reply.opcode != qdlp::Op::kSet || reply.key != key) {
      return Fail(Failure::kMismatchedReply);
    }
    OnStored(key, version);
    if (reply.status != qdlp::Status::kOk) {
      if (reply.status == qdlp::Status::kNoSpace) {
        ++nospace_;
      }
      return Fail(Failure::kBadStatus);
    }
    return true;
  }

  bool OnDelete(uint64_t key, const qdlp::OwnedFrame& reply) {
    if (reply.opcode != qdlp::Op::kDelete || reply.key != key) {
      return Fail(Failure::kMismatchedReply);
    }
    const bool could_be_cached = OnDeleted(key);
    if (reply.status == qdlp::Status::kMiss) {
      return true;
    }
    if (reply.status != qdlp::Status::kOk) {
      return Fail(Failure::kBadStatus);
    }
    return could_be_cached ? true : Fail(Failure::kStaleAfterDelete);
  }

  // The same model driven by in-process calls (the traced ledger).
  bool CheckHit(uint64_t key, const std::string& value) {
    const State& s = state(key);
    if (!s.written) {
      return Fail(Failure::kNeverWritten);
    }
    if (!s.cached) {
      return Fail(Failure::kStaleAfterDelete);
    }
    if (!values_->Matches(key, s.version, value)) {
      return Fail(Failure::kWrongValue);
    }
    return true;
  }

  void OnStored(uint64_t key, uint32_t version) {
    State& s = state(key);
    s.version = version;
    s.written = true;
    s.cached = true;
  }

  // Returns whether the key could have been cached before the delete.
  bool OnDeleted(uint64_t key) {
    State& s = state(key);
    const bool could_be_cached = s.written && s.cached;
    s.cached = false;
    return could_be_cached;
  }

  bool Fail(Failure f) {
    ++failures_[static_cast<int>(f)];
    return false;
  }

  uint64_t failures() const {
    uint64_t total = 0;
    for (const uint64_t n : failures_) {
      total += n;
    }
    return total;
  }
  uint64_t failures(Failure f) const { return failures_[static_cast<int>(f)]; }
  uint64_t nospace() const { return nospace_; }

 private:
  struct State {
    uint32_t version = 1;  // the backing store holds version 1 of every key
    uint32_t issued = 1;
    bool written = false;  // stored by this connection at least once
    bool cached = false;   // stored, and not deleted since
  };

  State& state(uint64_t key) { return states_[key / conns_]; }
  const State& state(uint64_t key) const { return states_[key / conns_]; }

  const ValueSpec* values_;
  uint32_t conns_;
  std::vector<State> states_;
  uint64_t failures_[static_cast<int>(Failure::kCount)] = {};
  uint64_t nospace_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_VERIFY_H_
