// kv-hot and web-churn: qdlpd as a separate process, driven by this
// process's loadgen over loopback TCP (README.md has the full design).
//
// Both are closed loops. kConns loadgen threads each own one connection and
// pipeline batches of up to kDepth frames, keeping kWindow batches in
// flight, against qdlpd --workers=kWorkers. qdlpd is pinned to the first
// half of the allowed CPUs and this process to the second half, one thread
// per CPU. Connection c owns the keys with key % kConns == c and is their
// only writer, so its KeyModel (verify.h) checks every reply exactly.
//
// Each workload pre-generates its op stream from the seed. A round replays
// every connection's share of the stream once, so each round does the same
// fixed work whatever the speed; rounds repeat until the time budget is
// spent and the end-to-end figures are medians over rounds. Setup — qdlpd
// spawn to ready plus the warm fill — runs kSetups times, on a fresh qdlpd
// each time, and reports the median; the last instance is measured.
//
// A traced run (--trace 1) traces two of its rounds (spans around the
// loadgen's calls into the client and codec), then replays the
// op stream in process through each public face of the serving stack —
// StripedAtomicIndex, ConcurrentQdLpFifo with and without values, the
// Cache adapter, the codec — timing every call, and over one loopback
// connection to the live qdlpd.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/common.h"
#include "harness/proc.h"
#include "harness/verify.h"
#include "harness/workloads.h"
#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/concurrent/striped_index.h"
#include "src/core/cache_api.h"
#include "src/obs/cache_stats.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/trace/dense_trace.h"
#include "src/trace/generators.h"
#include "src/util/random.h"

namespace perfbench {
namespace {

constexpr uint32_t kConns = 2;
constexpr size_t kWorkers = 2;
constexpr size_t kDepth = 128;
constexpr size_t kWindow = 2;  // batches in flight per connection
constexpr int kSetups = 3;
constexpr int kMinRounds = 8;
// A traced run traces rounds 1, 3, 5 and 7 (from 0); the rest are
// untraced. Four rounds give tracing.overhead_frac and the loadgen's span
// breakdown without filling memory with spans.
constexpr size_t kTracedRounds = 4;
constexpr size_t kLedgerOps = 65536;
constexpr size_t kLedgerTurn = 8192;

enum class OpKind : uint8_t {
  kGet,        // GET; on web-churn a miss is filled with a SET
  kSet,        // SET of the key's current version (warm fill)
  kOverwrite,  // SET of a new version
  kDelete,
};

struct Op {
  uint32_t key;
  OpKind kind;
};

struct Workload {
  std::string name;
  size_t capacity = 0;  // objects
  size_t arena_mb = 0;
  ValueSpec values;
  bool fill_misses = false;  // look-aside: SET every key a GET missed
  size_t num_keys = 0;   // distinct keys
  size_t key_space = 0;  // 1 + the largest key id after BalanceOwners
  std::vector<std::vector<Op>> rounds;  // per connection: one round's ops
  std::vector<std::vector<Op>> warm;    // per connection: the warm fill
  std::vector<Op> ledger_warm;          // in-process ledger, in stream order
  std::vector<Op> ledger_timed;
};

// Renumbers the keys so that key % kConns names the owning connection and
// the connections carry equal shares of the ops: keys are dealt, most
// requested first, to the connection with the fewest ops so far. Without
// this a skewed stream loads one connection more than the other, and each
// round waits for the busier one. The connections' key counts differ when
// the stream is skewed, so the ids are not dense. Returns the new key of
// every old key.
std::vector<uint32_t> BalanceOwners(std::vector<Op>* ops, size_t num_keys) {
  std::vector<uint64_t> freq(num_keys);
  for (const Op& op : *ops) {
    ++freq[op.key];
  }
  std::vector<uint32_t> order(num_keys);
  for (uint32_t k = 0; k < num_keys; ++k) {
    order[k] = k;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return freq[a] > freq[b]; });
  uint64_t load[kConns] = {};
  uint32_t count[kConns] = {};
  std::vector<uint32_t> relabel(num_keys);
  for (const uint32_t key : order) {
    const uint32_t c = static_cast<uint32_t>(
        std::min_element(load, load + kConns) - load);
    relabel[key] = count[c]++ * kConns + c;
    load[c] += freq[key];
  }
  for (Op& op : *ops) {
    op.key = relabel[op.key];
  }
  return relabel;
}

void SplitByOwner(const std::vector<Op>& ops,
                  std::vector<std::vector<Op>>* per_conn) {
  per_conn->assign(kConns, {});
  for (const Op& op : ops) {
    (*per_conn)[op.key % kConns].push_back(op);
  }
}

// Twitter-like high-reuse KV: a 64 Ki-key universe (about 36 Ki requested),
// half the object capacity, 64 B values, all stored in setup; the measured
// rounds are GET-only.
Workload MakeKvHot(uint64_t seed) {
  Workload w;
  w.name = "kv-hot";
  w.capacity = size_t{1} << 17;
  w.arena_mb = 64;
  w.values = ValueSpec{seed, 64, 64};
  qdlp::HighReuseKvConfig config;
  config.num_requests = size_t{1} << 20;
  config.num_objects = size_t{1} << 16;
  config.seed = qdlp::SplitMix64(seed ^ 0x6b762d686f74ULL);
  const qdlp::DenseTrace dense = qdlp::DensifyTrace(qdlp::GenerateHighReuseKv(config));
  std::vector<Op> ops;
  ops.reserve(dense.requests.size());
  for (const uint32_t key : dense.requests) {
    ops.push_back({key, OpKind::kGet});
  }
  const std::vector<uint32_t> keys = BalanceOwners(&ops, dense.num_objects());
  w.num_keys = keys.size();
  w.key_space = *std::max_element(keys.begin(), keys.end()) + size_t{1};
  // Warm fill: SET each key, then GET it so the lazy-promotion bit is set
  // before it leaves probation and every key settles in main.
  std::vector<Op> fill;
  for (const uint32_t key : keys) {
    fill.push_back({key, OpKind::kSet});
    fill.push_back({key, OpKind::kGet});
  }
  SplitByOwner(ops, &w.rounds);
  SplitByOwner(fill, &w.warm);
  w.ledger_warm = fill;
  w.ledger_timed.assign(ops.begin(), ops.begin() + std::min(ops.size(), kLedgerOps));
  return w;
}

// CDN-like popularity decay with one-hit wonders: a footprint about ten
// times the object capacity, look-aside GET with SET on miss, ~5%
// overwrites with a new version, ~1% DELETEs, values log-uniform in
// [32 B, 8 KiB]. The arena holds capacity x 8 KiB plus slack, so object
// capacity, not bytes, is the binding limit.
Workload MakeWebChurn(uint64_t seed) {
  Workload w;
  w.name = "web-churn";
  w.capacity = size_t{1} << 14;
  w.arena_mb = (w.capacity * 8192 >> 20) + 32;
  w.values = ValueSpec{seed, 32, 8192};
  w.fill_misses = true;
  qdlp::PopularityDecayConfig config;
  config.num_requests = 440000;
  config.introduction_rate = 0.12;
  config.recency_skew = 0.8;
  config.one_hit_wonder_fraction = 0.25;
  config.initial_objects = w.capacity;
  config.seed = qdlp::SplitMix64(seed ^ 0x7765622d636875ULL);
  const qdlp::DenseTrace dense =
      qdlp::DensifyTrace(qdlp::GeneratePopularityDecay(config));
  qdlp::Rng rng(qdlp::SplitMix64(seed ^ 0x6f70736d6978ULL));
  std::vector<Op> ops;
  ops.reserve(dense.requests.size());
  for (const uint32_t key : dense.requests) {
    const double u = rng.NextDouble();
    ops.push_back({key, u < 0.01   ? OpKind::kDelete
                        : u < 0.06 ? OpKind::kOverwrite
                                   : OpKind::kGet});
  }
  const std::vector<uint32_t> keys = BalanceOwners(&ops, dense.num_objects());
  w.num_keys = keys.size();
  w.key_space = *std::max_element(keys.begin(), keys.end()) + size_t{1};
  // The warm fill is one full round, so every measured round starts from
  // the state a round leaves behind.
  SplitByOwner(ops, &w.rounds);
  w.warm = w.rounds;
  w.ledger_warm = ops;
  w.ledger_timed.assign(ops.begin(), ops.begin() + std::min(ops.size(), kLedgerOps));
  return w;
}

// ---- Loadgen. ----

struct PassStats {
  uint64_t frames = 0;
  uint64_t batches = 0;
  uint64_t gets = 0;
  uint64_t get_hits = 0;  // kOk GET replies, as the server counts them
  double wall_ns = 0;
  double exchange_ns = 0;
  std::vector<double> get_rtt_us;  // batches led by the stream's GETs
  std::vector<double> set_rtt_us;  // look-aside fill batches
  bool transport_ok = true;

  void Merge(const PassStats& o) {
    frames += o.frames;
    batches += o.batches;
    gets += o.gets;
    get_hits += o.get_hits;
    wall_ns += o.wall_ns;
    exchange_ns += o.exchange_ns;
    get_rtt_us.insert(get_rtt_us.end(), o.get_rtt_us.begin(), o.get_rtt_us.end());
    set_rtt_us.insert(set_rtt_us.end(), o.set_rtt_us.begin(), o.set_rtt_us.end());
    transport_ok = transport_ok && o.transport_ok;
  }
};

// One connection replays `ops` once in pipelined batches of up to kDepth
// frames, keeping kWindow batches in flight, and checks every reply against
// `model`. Replies come back in wire order, so the model is updated in wire
// order; versions are assigned when a SET is sent (KeyModel::Issue).
void RunPass(qdlp::QdlpdClient& client, const std::vector<Op>& ops,
             const Workload& w, KeyModel& model, SpanLog& spans,
             uint64_t* batch_seq, PassStats* stats) {
  struct Pending {
    uint32_t key;
    OpKind kind;
    uint32_t version;
  };
  struct Batch {
    uint64_t id = 0;
    bool fill = false;  // look-aside fills, timed as SET batches
    int64_t sent_ns = 0;
    std::vector<Pending> pending;
  };
  const int64_t pass_start = NowNs();
  std::deque<Batch> in_flight;
  std::vector<Batch> free_batches;
  std::vector<qdlp::OwnedFrame> replies;
  std::vector<uint32_t> fills;
  std::string value;
  size_t next = 0;

  auto append = [&](Batch& batch, uint32_t key, OpKind kind) {
    std::string& buf = client.request_buffer();
    uint32_t version = 0;
    switch (kind) {
      case OpKind::kGet:
        qdlp::AppendGetRequest(&buf, key);
        break;
      case OpKind::kSet:
      case OpKind::kOverwrite:
        version = kind == OpKind::kSet ? model.issued(key) : model.Issue(key);
        w.values.Fill(key, version, &value);
        qdlp::AppendSetRequest(&buf, key, 0, value);
        break;
      case OpKind::kDelete:
        qdlp::AppendDeleteRequest(&buf, key);
        break;
    }
    batch.pending.push_back({key, kind, version});
  };
  auto send = [&](Batch batch) {
    const uint32_t span = spans.Begin("client.flush", batch.id);
    const int64_t t0 = NowNs();
    const bool ok = client.Flush();
    batch.sent_ns = NowNs();
    spans.End(span);
    stats->exchange_ns += static_cast<double>(batch.sent_ns - t0);
    if (!ok) {
      return false;
    }
    in_flight.push_back(std::move(batch));
    return true;
  };
  auto take = [&] {
    Batch batch;
    if (!free_batches.empty()) {
      batch.pending = std::move(free_batches.back().pending);
      free_batches.pop_back();
      batch.pending.clear();
    }
    batch.id = (*batch_seq)++;
    return batch;
  };

  while (true) {
    // Top the window up with the stream's next batches.
    while (in_flight.size() < kWindow && next < ops.size()) {
      Batch batch = take();
      const uint32_t span = spans.Begin("loadgen.encode", batch.id);
      const size_t end = std::min(ops.size(), next + kDepth);
      for (; next < end; ++next) {
        append(batch, ops[next].key, ops[next].kind);
      }
      spans.End(span);
      if (!send(std::move(batch))) {
        model.Fail(Failure::kTransport);
        stats->transport_ok = false;
        return;
      }
    }
    if (in_flight.empty()) {
      break;
    }
    Batch batch = std::move(in_flight.front());
    in_flight.pop_front();
    const size_t n = batch.pending.size();
    replies.clear();
    uint32_t span = spans.Begin("client.exchange", batch.id);
    const int64_t t0 = NowNs();
    const bool ok = client.Exchange(n, &replies);
    const int64_t t1 = NowNs();
    spans.End(span);
    if (!ok) {
      model.Fail(Failure::kTransport);
      stats->transport_ok = false;
      return;
    }
    stats->exchange_ns += static_cast<double>(t1 - t0);
    (batch.fill ? stats->set_rtt_us : stats->get_rtt_us)
        .push_back(static_cast<double>(t1 - batch.sent_ns) * 1e-3);
    stats->frames += n;
    ++stats->batches;

    span = spans.Begin("loadgen.verify", batch.id);
    fills.clear();
    for (size_t i = 0; i < n; ++i) {
      const Pending& p = batch.pending[i];
      const qdlp::OwnedFrame& reply = replies[i];
      switch (p.kind) {
        case OpKind::kGet:
          ++stats->gets;
          model.OnGet(p.key, reply);
          if (reply.status == qdlp::Status::kOk) {
            ++stats->get_hits;
          } else if (reply.status == qdlp::Status::kMiss && w.fill_misses) {
            fills.push_back(p.key);
          }
          break;
        case OpKind::kSet:
        case OpKind::kOverwrite:
          model.OnSet(p.key, p.version, reply);
          break;
        case OpKind::kDelete:
          model.OnDelete(p.key, reply);
          break;
      }
    }
    spans.End(span);
    free_batches.push_back(std::move(batch));
    if (!fills.empty()) {
      // Look-aside: store the current version of every key that missed.
      std::sort(fills.begin(), fills.end());
      fills.erase(std::unique(fills.begin(), fills.end()), fills.end());
      Batch fill = take();
      fill.fill = true;
      span = spans.Begin("loadgen.encode", fill.id);
      for (const uint32_t key : fills) {
        append(fill, key, OpKind::kSet);
      }
      spans.End(span);
      if (!send(std::move(fill))) {
        model.Fail(Failure::kTransport);
        stats->transport_ok = false;
        return;
      }
    }
  }
  stats->wall_ns += static_cast<double>(NowNs() - pass_start);
}

// One qdlpd instance and the connections that drive it.
struct Session {
  ServerProcess server;
  std::unique_ptr<qdlp::QdlpdClient> load[kConns];
  qdlp::QdlpdClient control;
  std::vector<KeyModel> models;
  uint64_t batch_seq[kConns] = {};  // span batch ids, disjoint per connection
  // Connection c's loadgen thread runs on load_cpus[c] and the qdlpd worker
  // serving it on server_cpus[c] (modulo the set sizes).
  std::vector<int> server_cpus;
  std::vector<int> load_cpus;
};

struct Round {
  double wall_s = 0;
  double server_cpu_s = 0;
  double steal_frac = 0;
  uint64_t voluntary_csw = 0;
  bool traced = false;
  PassStats stats;
};

// Every connection replays `ops[c]` once, in parallel.
Round RunRound(Session& s, const Workload& w,
               const std::vector<std::vector<Op>>& ops,
               std::vector<SpanLog>* span_logs) {
  Round round;
  round.traced = span_logs != nullptr;
  TaskTotals before;
  TaskTotals after;
  const bool read_before = SumTasks(s.server.proc_dir(), &before);
  const CpuTicks ticks_before = ReadCpuTicks();
  std::vector<PassStats> stats(kConns);
  std::vector<SpanLog> off(kConns, SpanLog(false));
  const int64_t start = NowNs();
  {
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < kConns; ++c) {
      threads.emplace_back([&, c] {
        Pin(0, {s.load_cpus[c % s.load_cpus.size()]});
        RunPass(*s.load[c], ops[c], w, s.models[c],
                span_logs != nullptr ? (*span_logs)[c] : off[c],
                &s.batch_seq[c], &stats[c]);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  round.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  if (!read_before || !SumTasks(s.server.proc_dir(), &after)) {
    after = before;  // qdlpd is gone; the failed exchanges are counted
    round.stats.transport_ok = false;
  }
  round.steal_frac = StealFraction(ticks_before, ReadCpuTicks());
  round.server_cpu_s = static_cast<double>(after.cpu_ns - before.cpu_ns) * 1e-9;
  round.voluntary_csw = after.voluntary_csw - before.voluntary_csw;
  for (const PassStats& p : stats) {
    round.stats.Merge(p);
  }
  return round;
}

// The qdlpd thread that serves `client`: the one whose CPU time grows
// while only this connection sends (a burst of PINGs). -1 on error.
long ServingThread(Session& s, qdlp::QdlpdClient& client) {
  std::vector<TaskSample> before;
  std::vector<TaskSample> after;
  std::vector<qdlp::OwnedFrame> replies;
  ReadTasks(s.server.proc_dir(), &before);
  for (int batch = 0; batch < 64; ++batch) {
    for (size_t i = 0; i < kDepth; ++i) {
      qdlp::AppendPingRequest(&client.request_buffer());
    }
    replies.clear();
    if (!client.Exchange(kDepth, &replies)) {
      return -1;
    }
  }
  ReadTasks(s.server.proc_dir(), &after);
  long busiest = -1;
  uint64_t most = 0;
  for (const TaskSample& a : after) {
    for (const TaskSample& b : before) {
      if (a.tid == b.tid && a.totals.cpu_ns - b.totals.cpu_ns > most) {
        most = a.totals.cpu_ns - b.totals.cpu_ns;
        busiest = a.tid;
      }
    }
  }
  return busiest;
}

// The kernel spreads connections over the SO_REUSEPORT listeners by hash,
// so two connections share one worker half the time. Reconnect until
// every load connection has a worker of its own, so each run measures the
// same placement.
bool SpreadOverWorkers(Session& s, std::string* error) {
  for (int attempt = 0; attempt < 32; ++attempt) {
    std::vector<long> threads;
    uint32_t shared = kConns;  // a connection whose worker is taken
    for (uint32_t c = 0; c < kConns; ++c) {
      const long tid = ServingThread(s, *s.load[c]);
      if (tid < 0) {
        *error = "cannot place connections on workers";
        return false;
      }
      if (std::find(threads.begin(), threads.end(), tid) != threads.end()) {
        shared = c;
      }
      threads.push_back(tid);
    }
    if (shared == kConns) {
      for (uint32_t c = 0; c < kConns; ++c) {
        Pin(threads[c], {s.server_cpus[c % s.server_cpus.size()]});
      }
      return true;
    }
    if (!s.load[shared]->Connect(s.server.port())) {
      *error = "cannot connect to qdlpd";
      return false;
    }
  }
  *error = "load connections never landed on distinct workers";
  return false;
}

// Setup cost of one session. `cpu_s` is what setup_s reports: the CPU
// time qdlpd and the harness spend from spawn to the end of the warm fill,
// without the harness's connection placement. It excludes time the
// hypervisor gives to other guests, which on a shared VM swings the wall
// time of the same setup by half between runs; `wall_s` is printed too.
struct SetupCost {
  double cpu_s = 0;
  double wall_s = 0;
};

std::unique_ptr<Session> StartSession(const RunOptions& options,
                                      const Workload& w,
                                      const std::vector<int>& server_cpus,
                                      const std::vector<int>& load_cpus,
                                      SetupCost* cost, std::string* error) {
  auto s = std::make_unique<Session>();
  s->server_cpus = server_cpus;
  s->load_cpus = load_cpus;
  const int64_t start = NowNs();
  const double harness_cpu0 = ProcessCpuSeconds();
  const std::vector<std::string> args = {
      "--port=0", "--capacity=" + std::to_string(w.capacity),
      "--arena-mb=" + std::to_string(w.arena_mb),
      "--workers=" + std::to_string(kWorkers)};
  if (!s->server.Start(options.qdlpd, args, server_cpus, error)) {
    return nullptr;
  }
  const double ready_wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  const double spawn_cpu_s = ProcessCpuSeconds() - harness_cpu0;
  TaskTotals ready;
  if (!SumTasks(s->server.proc_dir(), &ready)) {
    *error = "cannot read qdlpd's CPU time";
    return nullptr;
  }
  for (uint32_t c = 0; c < kConns; ++c) {
    s->load[c] = std::make_unique<qdlp::QdlpdClient>();
    if (!s->load[c]->Connect(s->server.port())) {
      *error = "cannot connect to qdlpd";
      return nullptr;
    }
    s->models.emplace_back(&w.values, w.key_space, kConns);
    s->batch_seq[c] = uint64_t{c} << 40;
  }
  if (!s->control.Connect(s->server.port()) || !s->control.Ping()) {
    *error = "cannot connect to qdlpd";
    return nullptr;
  }
  TaskTotals placed;
  if (!SpreadOverWorkers(*s, error) || !SumTasks(s->server.proc_dir(), &placed)) {
    return nullptr;
  }
  const double fill_cpu0 = ProcessCpuSeconds();
  const Round fill = RunRound(*s, w, w.warm, nullptr);
  const double fill_cpu_s = ProcessCpuSeconds() - fill_cpu0;
  TaskTotals filled;
  if (!SumTasks(s->server.proc_dir(), &filled)) {
    *error = "cannot read qdlpd's CPU time";
    return nullptr;
  }
  cost->wall_s = ready_wall_s + fill.wall_s;
  cost->cpu_s =
      spawn_cpu_s + fill_cpu_s +
      static_cast<double>(ready.cpu_ns + filled.cpu_ns - placed.cpu_ns) * 1e-9;
  if (!fill.stats.transport_ok) {
    *error = "transport error during the warm fill";
    return nullptr;
  }
  return s;
}

bool ParseFinalLine(const std::string& line, qdlp::CacheStats* out) {
  unsigned long long v[6];
  if (std::sscanf(line.c_str(),
                  "qdlpd: done. requests=%llu hits=%llu misses=%llu "
                  "inserts=%llu evictions=%llu size=%llu",
                  &v[0], &v[1], &v[2], &v[3], &v[4], &v[5]) != 6) {
    return false;
  }
  out->requests = v[0];
  out->hits = v[1];
  out->misses = v[2];
  out->inserts = v[3];
  out->evictions = v[4];
  out->size = v[5];
  return true;
}

// Takes the last STATS reply, stops qdlpd with SIGTERM and requires a
// clean exit whose final stats line matches that reply. Returns the
// number of failed checks.
uint64_t StopSession(Session& s, qdlp::CacheStats* last) {
  uint64_t failed = 0;
  if (!s.control.GetStats(last)) {
    std::fprintf(stderr, "perfbench: STATS failed before shutdown\n");
    ++failed;
  }
  for (uint32_t c = 0; c < kConns; ++c) {
    s.load[c]->Close();
  }
  s.control.Close();
  std::string final_line;
  std::string error;
  qdlp::CacheStats final_stats;
  if (!s.server.Stop(&final_line, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return failed + 1;
  }
  if (!ParseFinalLine(final_line, &final_stats) ||
      final_stats.requests != last->requests ||
      final_stats.hits != last->hits || final_stats.misses != last->misses ||
      final_stats.inserts != last->inserts ||
      final_stats.evictions != last->evictions ||
      final_stats.size != last->size) {
    std::fprintf(stderr,
                 "perfbench: final stats line does not match the last STATS "
                 "reply: %s\n",
                 final_line.c_str());
    ++failed;
  }
  return failed;
}

// ---- In-process ledger (traced runs). ----

// qdlpd's engine config with the workload's capacity and arena; every face
// takes its index width and eviction domains from it.
qdlp::CacheConfig LedgerConfig(size_t capacity, size_t arena_bytes) {
  qdlp::CacheConfig config = qdlp::QdlpdOptions::DefaultCacheConfig();
  config.capacity = capacity;
  config.value_arena_bytes = arena_bytes;
  return config;
}

// Each face wraps one public entry point of the serving stack behind
// Get/Set/Delete and names the spans it records.
//
// StripedAtomicIndex alone: Find per GET over an index that mirrors the
// cache's residency approximately — stored keys in FIFO order, bounded by
// the capacity — so it holds as many keys as the cache does.
struct IndexFace {
  explicit IndexFace(const qdlp::CacheConfig& config)
      : capacity(config.capacity), index(config.capacity, config.num_stripes) {}
  bool Get(uint32_t key, std::string*) {
    uint32_t slot;
    return index.Find(key, &slot);
  }
  void Set(uint32_t key, const std::string&) {
    if (!index.Contains(key)) {
      index.Insert(key, next_slot++);
      fifo.push_back(key);
      if (fifo.size() > capacity) {
        index.Erase(fifo.front());
        fifo.pop_front();
      }
    }
  }
  void Delete(uint32_t key) { index.Erase(key); }
  static constexpr bool kStoresValues = false;
  static constexpr bool kAdmitsOnMiss = false;
  static constexpr const char* kHit = "concurrent.index_find";
  static constexpr const char* kMiss = "concurrent.index_find";
  static constexpr const char* kSet = "concurrent.index_insert";
  static constexpr const char* kDelete = "concurrent.index_erase";

  size_t capacity;
  qdlp::StripedAtomicIndex index;
  std::deque<uint32_t> fifo;
  uint32_t next_slot = 0;
};

// Metadata-only ConcurrentQdLpFifo: Get admits on a miss (the miss path:
// home-domain lock, probation, ghost, main).
struct MetadataFace {
  explicit MetadataFace(const qdlp::CacheConfig& config)
      : cache(config.capacity, config.num_stripes, config.num_shards) {}
  bool Get(uint32_t key, std::string*) { return cache.Get(key); }
  void Set(uint32_t key, const std::string&) { cache.Admit(key); }
  void Delete(uint32_t key) { cache.Remove(key); }
  static constexpr bool kStoresValues = false;
  static constexpr bool kAdmitsOnMiss = true;
  static constexpr const char* kHit = "concurrent.get.hit";
  static constexpr const char* kMiss = "concurrent.get.miss";
  static constexpr const char* kSet = "concurrent.admit";
  static constexpr const char* kDelete = "concurrent.remove";

  qdlp::ConcurrentQdLpFifo cache;
};

// The value engine qdlpd serves: GetValue / SetValue / Remove.
struct ValueFace {
  explicit ValueFace(const qdlp::CacheConfig& config)
      : cache(config.capacity, config.num_stripes, config.num_shards,
              qdlp::QdlpValueOptions{config.value_arena_bytes,
                                     config.max_value_len}) {}
  bool Get(uint32_t key, std::string* value) {
    return cache.GetValue(key, /*now_s=*/1, value);
  }
  void Set(uint32_t key, const std::string& value) {
    ok = cache.SetValue(key, value, 0) == qdlp::ConcurrentQdLpFifo::SetResult::kOk && ok;
  }
  void Delete(uint32_t key) { cache.Remove(key); }
  static constexpr bool kStoresValues = true;
  static constexpr bool kAdmitsOnMiss = false;
  static constexpr const char* kHit = "store.get_value.hit";
  static constexpr const char* kMiss = "store.get_value.miss";
  static constexpr const char* kSet = "store.set_value";
  static constexpr const char* kDelete = "store.remove";

  qdlp::ConcurrentQdLpFifo cache;
  bool ok = true;
};

// The Cache adapter qdlpd's workers call (MakeCache with qdlpd's config).
struct CoreFace {
  explicit CoreFace(const qdlp::CacheConfig& config)
      : cache(qdlp::MakeCache(config)) {}
  bool Get(uint32_t key, std::string* value) { return cache->Get(key, value); }
  void Set(uint32_t key, const std::string& value) {
    ok = cache->Set(key, value, 0) == qdlp::Cache::SetStatus::kOk && ok;
  }
  void Delete(uint32_t key) { cache->Delete(key); }
  static constexpr bool kStoresValues = true;
  static constexpr bool kAdmitsOnMiss = false;
  static constexpr const char* kHit = "core.get.hit";
  static constexpr const char* kMiss = "core.get.miss";
  static constexpr const char* kSet = "core.set";
  static constexpr const char* kDelete = "core.delete";

  std::unique_ptr<qdlp::Cache> cache;
  bool ok = true;
};

// Replays ops[begin, end) through `face` the way the loadgen drives qdlpd
// (a GET miss is filled when the workload fills misses), recording one span
// per call when `spans` is enabled and checking every value-engine hit.
template <typename Face>
void ReplayFace(Face& face, const Workload& w, const std::vector<Op>& ops,
                size_t begin, size_t end, KeyModel& model, SpanLog& spans,
                Outcome* outcome) {
  std::string value;
  std::string fill;
  const uint64_t batch = begin / kDepth;
  for (size_t i = begin; i < end; ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case OpKind::kGet: {
        value.clear();
        const uint32_t span = spans.Begin(Face::kHit, batch);
        const bool hit = face.Get(op.key, &value);
        spans.End(span, hit ? Face::kHit : Face::kMiss);
        if (Face::kStoresValues) {
          ++outcome->attempted;
          if (hit && !model.CheckHit(op.key, value)) {
            ++outcome->failed;
          }
        }
        if (!hit && w.fill_misses && !Face::kAdmitsOnMiss) {
          w.values.Fill(op.key, model.version(op.key), &fill);
          const uint32_t set_span = spans.Begin(Face::kSet, batch);
          face.Set(op.key, fill);
          spans.End(set_span);
          model.OnStored(op.key, model.version(op.key));
        }
        break;
      }
      case OpKind::kSet:
      case OpKind::kOverwrite: {
        const uint32_t version = op.kind == OpKind::kSet
                                     ? model.version(op.key)
                                     : model.NextVersion(op.key);
        w.values.Fill(op.key, version, &fill);
        const uint32_t span = spans.Begin(Face::kSet, batch);
        face.Set(op.key, fill);
        spans.End(span);
        model.OnStored(op.key, version);
        break;
      }
      case OpKind::kDelete: {
        const uint32_t span = spans.Begin(Face::kDelete, batch);
        face.Delete(op.key);
        spans.End(span);
        model.OnDeleted(op.key);
        break;
      }
    }
  }
}

// Replays the warm ops, then the timed ops, through every face in turns
// of kLedgerTurn ops, so drift in host speed lands on all faces alike and
// the steps between faces (copy, adapter) compare like with like, while
// each turn is long enough for a face to run from its own cached state.
// Each face drives its own engine, and all engines see the same op
// sequence.
void RunLedger(const Workload& w, SpanLog& spans, Outcome* outcome) {
  const qdlp::CacheConfig config = LedgerConfig(w.capacity, w.arena_mb << 20);
  IndexFace index(config);
  MetadataFace metadata(config);
  ValueFace values(config);
  CoreFace core(config);
  std::vector<KeyModel> models(4, KeyModel(&w.values, w.key_space, 1));
  SpanLog off(false);
  auto lockstep = [&](const std::vector<Op>& ops, SpanLog& log) {
    for (size_t begin = 0; begin < ops.size(); begin += kLedgerTurn) {
      const size_t end = std::min(ops.size(), begin + kLedgerTurn);
      ReplayFace(index, w, ops, begin, end, models[0], log, outcome);
      ReplayFace(metadata, w, ops, begin, end, models[1], log, outcome);
      ReplayFace(values, w, ops, begin, end, models[2], log, outcome);
      ReplayFace(core, w, ops, begin, end, models[3], log, outcome);
    }
  };
  lockstep(w.ledger_warm, off);
  lockstep(w.ledger_timed, spans);
  outcome->failed += (values.ok ? 0 : 1) + (core.ok ? 0 : 1);
}

// The codec alone: request encode (Append*Request) and frame parse
// (ParseFrame) over an in-memory buffer, one span per batch. A batch that
// parses to fewer frames than were encoded counts as failed.
void LedgerCodec(const Workload& w, SpanLog& spans, Outcome* outcome) {
  KeyModel model(&w.values, w.key_space, 1);
  std::string buf;
  std::string value;
  std::vector<std::string> values(kDepth);
  for (size_t begin = 0; begin < w.ledger_timed.size(); begin += kDepth) {
    const size_t n = std::min(kDepth, w.ledger_timed.size() - begin);
    for (size_t i = 0; i < n; ++i) {
      const Op& op = w.ledger_timed[begin + i];
      if (op.kind == OpKind::kSet || op.kind == OpKind::kOverwrite) {
        w.values.Fill(op.key, model.NextVersion(op.key), &values[i]);
      }
    }
    buf.clear();
    uint32_t span = spans.Begin("codec.encode", begin);
    for (size_t i = 0; i < n; ++i) {
      const Op& op = w.ledger_timed[begin + i];
      switch (op.kind) {
        case OpKind::kGet:
          qdlp::AppendGetRequest(&buf, op.key);
          break;
        case OpKind::kSet:
        case OpKind::kOverwrite:
          qdlp::AppendSetRequest(&buf, op.key, 0, values[i]);
          break;
        case OpKind::kDelete:
          qdlp::AppendDeleteRequest(&buf, op.key);
          break;
      }
    }
    spans.End(span);
    span = spans.Begin("codec.parse", begin);
    const uint8_t* data = reinterpret_cast<const uint8_t*>(buf.data());
    size_t offset = 0;
    size_t frames = 0;
    qdlp::Frame frame;
    size_t consumed = 0;
    while (qdlp::ParseFrame(data + offset, buf.size() - offset, &frame,
                            &consumed) == qdlp::ParseStatus::kFrame) {
      offset += consumed;
      ++frames;
    }
    spans.End(span);
    outcome->attempted += 1;
    if (frames != n) {
      std::fprintf(stderr, "perfbench: codec parsed %zu of %zu frames\n",
                   frames, n);
      ++outcome->failed;
    }
  }
}

// GETs over one loopback connection to the live qdlpd, checked against
// the owning connection's model. Returns frames sent.
uint64_t LedgerLoopback(Session& s, const Workload& w, SpanLog& spans,
                        Outcome* outcome) {
  std::vector<uint32_t> keys;
  for (const Op& op : w.ledger_timed) {
    if (op.kind == OpKind::kGet) {
      keys.push_back(op.key);
    }
  }
  std::vector<qdlp::OwnedFrame> replies;
  uint64_t frames = 0;
  for (size_t begin = 0; begin < keys.size(); begin += kDepth) {
    const size_t n = std::min(kDepth, keys.size() - begin);
    for (size_t i = begin; i < begin + n; ++i) {
      qdlp::AppendGetRequest(&s.control.request_buffer(), keys[i]);
    }
    replies.clear();
    const uint32_t span = spans.Begin("loopback.exchange", begin);
    const bool ok = s.control.Exchange(n, &replies);
    spans.End(span);
    outcome->attempted += n;
    if (!ok) {
      ++outcome->failed;
      break;
    }
    frames += n;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t key = keys[begin + i];
      if (!s.models[key % kConns].OnGet(key, replies[i])) {
        ++outcome->failed;
      }
    }
  }
  return frames;
}

double PerFrameNs(const std::map<std::string, SpanLog::Totals>& totals,
                  const std::string& name, uint64_t frames, double overhead) {
  const auto it = totals.find(name);
  if (it == totals.end() || frames == 0) {
    return 0.0;
  }
  return (it->second.self_ns - overhead * static_cast<double>(it->second.count)) /
         static_cast<double>(frames);
}

void AddPercentiles(MetricSet* m, const std::string& prefix,
                    std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const Percentile p50 = PercentileOf(samples, 50.0);
  const Percentile p99 = PercentileOf(samples, 99.0);
  const Percentile tail = HighestSupportedPercentile(samples);
  m->Add(prefix + "_p50_us", p50.value, "us");
  m->Add(prefix + "_p99_us", p99.value, "us");
  m->Add(prefix + "_samples", static_cast<double>(samples.size()), "count");
  m->Add(prefix + "_tail_pct", tail.pct, "%");
  m->Add(prefix + "_tail_us", tail.value, "us");
  if (!Supported(p99)) {
    std::fprintf(stderr,
                 "perfbench: %s p99 has only %zu samples beyond it; the tail "
                 "the sample supports is p%g\n",
                 prefix.c_str(), p99.beyond, tail.pct);
  }
}

}  // namespace

bool RunServerWorkload(const RunOptions& options, MetricSet* metrics,
                       Outcome* outcome) {
  const Workload w = options.workload == "kv-hot" ? MakeKvHot(options.seed)
                                                  : MakeWebChurn(options.seed);
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() < 2) {
    std::fprintf(stderr, "perfbench: needs at least 2 allowed CPUs\n");
    return false;
  }
  const std::vector<int> server_cpus(cpus.begin(), cpus.begin() + cpus.size() / 2);
  const std::vector<int> load_cpus(cpus.begin() + cpus.size() / 2, cpus.end());
  if (!Pin(0, load_cpus)) {
    std::fprintf(stderr, "perfbench: cannot pin the loadgen\n");
    return false;
  }

  // Setup, kSetups times; the last session is the measured one.
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::unique_ptr<Session> session;
  for (int i = 0; i < kSetups; ++i) {
    SetupCost cost;
    std::string error;
    session = StartSession(options, w, server_cpus, load_cpus, &cost, &error);
    if (session == nullptr) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", error.c_str());
      return false;
    }
    setup_s.push_back(cost.cpu_s);
    setup_wall_s.push_back(cost.wall_s);
    if (i + 1 < kSetups) {
      qdlp::CacheStats last;
      outcome->failed += StopSession(*session, &last);
      for (const KeyModel& m : session->models) {
        outcome->failed += m.failures();
      }
      session.reset();
    }
  }
  uint64_t setup_frames = 0;
  for (const auto& ops : w.warm) {
    setup_frames += ops.size();
  }
  outcome->attempted += setup_frames * kSetups;
  Session& s = *session;

  qdlp::CacheStats begin;
  if (!s.control.GetStats(&begin)) {
    std::fprintf(stderr, "perfbench: STATS failed\n");
    return false;
  }
  std::vector<Round> rounds;
  std::vector<SpanLog> span_logs(kConns, SpanLog(options.trace));
  for (SpanLog& log : span_logs) {
    log.Reserve(1 << 18);
  }
  const CpuTicks ticks_begin = ReadCpuTicks();
  const int64_t measure_start = NowNs();
  while (static_cast<int>(rounds.size()) < kMinRounds ||
         static_cast<double>(NowNs() - measure_start) * 1e-9 < options.seconds) {
    const bool traced =
        options.trace && rounds.size() % 2 == 1 && rounds.size() < 2 * kTracedRounds;
    rounds.push_back(RunRound(s, w, w.rounds, traced ? &span_logs : nullptr));
    const Round& r = rounds.back();
    std::fprintf(stderr,
                 "round %zu%s: %.0f ops/s, qdlpd cpu %.3f s over %.3f s, "
                 "steal %.3f\n",
                 rounds.size(), traced ? " (traced)" : "",
                 static_cast<double>(r.stats.frames) / r.wall_s, r.server_cpu_s,
                 r.wall_s, r.steal_frac);
    if (!rounds.back().stats.transport_ok) {
      std::fprintf(stderr, "perfbench: lost qdlpd in round %zu\n", rounds.size());
      ++outcome->failed;
      break;
    }
  }
  const CpuTicks ticks_end = ReadCpuTicks();
  qdlp::CacheStats end;
  if (!s.control.GetStats(&end)) {
    std::fprintf(stderr, "perfbench: STATS failed\n");
    return false;
  }

  // Window figures over the untraced rounds (all rounds when untraced).
  PassStats window;
  std::vector<double> rps;
  std::vector<double> rps_per_core;
  std::vector<double> traced_rps;
  double server_cpu_s = 0;
  double wall_s = 0;
  uint64_t voluntary_csw = 0;
  uint64_t window_frames = 0;
  uint64_t window_gets = 0;
  uint64_t window_get_hits = 0;
  for (const Round& r : rounds) {
    window_frames += r.stats.frames;
    window_gets += r.stats.gets;
    window_get_hits += r.stats.get_hits;
    const double rate = static_cast<double>(r.stats.frames) / r.wall_s;
    if (r.traced) {
      traced_rps.push_back(rate);
      continue;
    }
    rps.push_back(rate);
    rps_per_core.push_back(Ratio(static_cast<double>(r.stats.frames), r.server_cpu_s));
    server_cpu_s += r.server_cpu_s;
    wall_s += r.wall_s;
    voluntary_csw += r.voluntary_csw;
    window.Merge(r.stats);
  }
  outcome->attempted += window_frames;

  // STATS identities over the window: every GET is one request, counted
  // once as a hit or a miss, and the server's hits are the client's hits.
  const uint64_t d_requests = end.requests - begin.requests;
  const uint64_t d_hits = end.hits - begin.hits;
  const uint64_t d_misses = end.misses - begin.misses;
  outcome->attempted += 3;
  if (d_requests != d_hits + d_misses) {
    std::fprintf(stderr, "perfbench: STATS requests != hits + misses\n");
    ++outcome->failed;
  }
  if (d_requests != window_gets) {
    std::fprintf(stderr,
                 "perfbench: STATS requests delta %llu != client GETs %llu\n",
                 static_cast<unsigned long long>(d_requests),
                 static_cast<unsigned long long>(window_gets));
    ++outcome->failed;
  }
  if (d_hits != window_get_hits) {
    std::fprintf(stderr,
                 "perfbench: STATS hits delta %llu != client GET hits %llu\n",
                 static_cast<unsigned long long>(d_hits),
                 static_cast<unsigned long long>(window_get_hits));
    ++outcome->failed;
  }

  SpanLog ledger_spans(options.trace);
  ledger_spans.Reserve(8 * kLedgerOps);
  uint64_t loopback_frames = 0;
  if (options.trace) {
    loopback_frames = LedgerLoopback(s, w, ledger_spans, outcome);
  }

  const double peak_rss_mib =
      static_cast<double>(PeakRssKib(s.server.proc_dir())) / 1024.0;
  qdlp::CacheStats last;
  outcome->attempted += 1;
  outcome->failed += StopSession(s, &last);
  uint64_t nospace = 0;
  for (const KeyModel& m : s.models) {
    outcome->failed += m.failures();
    nospace += m.nospace();
    for (int f = 0; f < static_cast<int>(Failure::kCount); ++f) {
      if (m.failures(static_cast<Failure>(f)) > 0) {
        std::fprintf(stderr, "perfbench: %llu %s failures\n",
                     static_cast<unsigned long long>(m.failures(static_cast<Failure>(f))),
                     FailureName(static_cast<Failure>(f)));
      }
    }
  }

  // End-to-end metrics.
  const double hit_ratio = Ratio(static_cast<double>(d_hits), static_cast<double>(d_requests));
  metrics->Add("throughput_rps", Median(rps), "1/s");
  metrics->Add("rps_per_server_core", Median(rps_per_core), "1/s");
  metrics->Add("hit_ratio", hit_ratio, "ratio");
  metrics->Add("peak_rss_mib", peak_rss_mib, "MiB");
  metrics->Add("setup_s", Median(setup_s), "s");
  metrics->Add("setup_wall_s", Median(setup_wall_s), "s");
  AddPercentiles(metrics, "get", window.get_rtt_us);
  if (w.fill_misses) {
    AddPercentiles(metrics, "set", window.set_rtt_us);
  }
  metrics->Add("rounds", static_cast<double>(rps.size()), "count");
  metrics->Add("host.steal_frac", StealFraction(ticks_begin, ticks_end), "ratio");
  metrics->Add("ops_per_round", static_cast<double>(rounds[0].stats.frames), "count");
  metrics->Add("keys", static_cast<double>(w.num_keys), "count");
  metrics->Add("footprint_over_capacity",
               static_cast<double>(w.num_keys) / static_cast<double>(w.capacity),
               "ratio");

  if (!options.trace) {
    return true;
  }

  // Per-layer metrics.
  RunLedger(w, ledger_spans, outcome);
  LedgerCodec(w, ledger_spans, outcome);
  const double overhead = CalibrateSpanOverheadNs();
  const auto t = ledger_spans.Aggregate();
  auto per_call = [&](const char* name) { return PerCallNs(t, name, overhead); };
  // Mean over both outcomes of a hit/miss-split call.
  auto per_get = [&](const std::string& prefix) {
    const uint64_t n = CallCount(t, prefix + ".hit") + CallCount(t, prefix + ".miss");
    if (n == 0) {
      return 0.0;
    }
    const std::string hit = prefix + ".hit";
    const std::string miss = prefix + ".miss";
    return (per_call(hit.c_str()) * static_cast<double>(CallCount(t, hit)) +
            per_call(miss.c_str()) * static_cast<double>(CallCount(t, miss))) /
           static_cast<double>(n);
  };
  uint64_t codec_frames = w.ledger_timed.size();
  const double encode_ns = PerFrameNs(t, "codec.encode", codec_frames, overhead);
  const double parse_ns = PerFrameNs(t, "codec.parse", codec_frames, overhead);
  const double loopback_ns = PerFrameNs(t, "loopback.exchange", loopback_frames, overhead);
  const double core_get_ns = per_get("core.get");
  metrics->Add("concurrent.index_find_ns", per_call("concurrent.index_find"), "ns");
  metrics->Add("concurrent.hit_ns", per_call("concurrent.get.hit"), "ns");
  metrics->Add("concurrent.miss_ns", per_call("concurrent.get.miss"), "ns");
  metrics->Add("concurrent.remove_ns", per_call("concurrent.remove"), "ns");
  metrics->Add("store.get_value_ns", per_get("store.get_value"), "ns");
  metrics->Add("store.set_value_ns", per_call("store.set_value"), "ns");
  metrics->Add("store.copy_step_ns",
               CallCount(t, "store.get_value.hit") == 0
                   ? 0.0
                   : per_call("store.get_value.hit") - per_call("concurrent.get.hit"),
               "ns");
  metrics->Add("core.get_ns", core_get_ns, "ns");
  metrics->Add("core.set_ns", per_call("core.set"), "ns");
  metrics->Add("core.delete_ns", per_call("core.delete"), "ns");
  metrics->Add("core.adapter_step_ns",
               CallCount(t, "core.get.hit") == 0
                   ? 0.0
                   : per_call("core.get.hit") - per_call("store.get_value.hit"),
               "ns");
  metrics->Add("server.encode_ns", encode_ns, "ns");
  metrics->Add("server.parse_ns", parse_ns, "ns");
  metrics->Add("server.loopback_get_ns", loopback_ns, "ns");
  // Request encode and parse plus the reply's, taken at the request cost.
  metrics->Add("server.socket_step_ns",
               loopback_ns - core_get_ns - 2 * (encode_ns + parse_ns), "ns");

  metrics->Add("server.busy_frac",
               Ratio(server_cpu_s, wall_s * static_cast<double>(kWorkers)), "ratio");
  metrics->Add("server.ctx_switches_per_batch",
               Ratio(static_cast<double>(voluntary_csw), static_cast<double>(window.batches)),
               "1/batch");
  metrics->Add("loadgen.exchange_frac", Ratio(window.exchange_ns, window.wall_ns), "ratio");

  const struct {
    const char* name;
    uint64_t qdlp::CacheStats::*member;
  } counts[] = {
      {"hits", &qdlp::CacheStats::hits},
      {"misses", &qdlp::CacheStats::misses},
      {"inserts", &qdlp::CacheStats::inserts},
      {"evictions", &qdlp::CacheStats::evictions},
      {"promotions", &qdlp::CacheStats::promotions},
      {"demotions", &qdlp::CacheStats::demotions},
      {"ghost_hits", &qdlp::CacheStats::ghost_hits},
      {"lock_acquisitions", &qdlp::CacheStats::lock_acquisitions},
      {"lock_failures", &qdlp::CacheStats::lock_failures},
      {"buffer_drops", &qdlp::CacheStats::buffer_drops},
  };
  for (const auto& c : counts) {
    metrics->Add(std::string("concurrent.") + c.name,
                 static_cast<double>(end.*c.member - begin.*c.member), "count");
  }
  auto delta = [&](uint64_t qdlp::CacheStats::*member) {
    return static_cast<double>(end.*member - begin.*member);
  };
  metrics->Add("concurrent.admit_drop_ratio",
               Ratio(delta(&qdlp::CacheStats::buffer_drops), delta(&qdlp::CacheStats::misses)),
               "ratio");
  metrics->Add("concurrent.ghost_hit_ratio",
               Ratio(delta(&qdlp::CacheStats::ghost_hits), delta(&qdlp::CacheStats::inserts)),
               "ratio");
  metrics->Add("concurrent.quick_demote_ratio",
               Ratio(delta(&qdlp::CacheStats::demotions),
                     delta(&qdlp::CacheStats::demotions) + delta(&qdlp::CacheStats::promotions)),
               "ratio");
  metrics->Add("concurrent.lock_fail_ratio",
               Ratio(delta(&qdlp::CacheStats::lock_failures),
                     delta(&qdlp::CacheStats::lock_failures) +
                         delta(&qdlp::CacheStats::lock_acquisitions)),
               "ratio");
  metrics->Add("store.nospace", static_cast<double>(nospace), "count");
  metrics->Add("tracing.overhead_frac", 1.0 - Ratio(Median(traced_rps), Median(rps)),
               "ratio");

  if (!options.workdir.empty()) {
    const std::string path = options.workdir + "/spans-" + w.name + "-seed" +
                             std::to_string(options.seed) + ".csv";
    if (FILE* out = std::fopen(path.c_str(), "w")) {
      std::fprintf(out, "thread,name,batch,parent,start_ns,end_ns\n");
      for (uint32_t c = 0; c < kConns; ++c) {
        span_logs[c].WriteCsv(out, static_cast<int>(c));
      }
      ledger_spans.WriteCsv(out, static_cast<int>(kConns));
      std::fclose(out);
      std::printf("spans %s\n", path.c_str());
    }
  }
  return true;
}

}  // namespace perfbench
