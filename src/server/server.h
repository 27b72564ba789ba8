// qdlpd — the QD-LP-FIFO cache as a network server.
//
// The serving stack is the paper's construction made operational: the
// ConcurrentQdLpFifo metadata cache (lock-free lazy-promotion hits,
// sharded quick-demotion eviction domains) plus the SlabStore value layer
// (src/store/slab_store.h), fronted by the compact binary protocol in
// protocol.h.
//
// Threading model: `num_workers` epoll event loops, each with its own
// SO_REUSEPORT listener on the same port so the kernel spreads incoming
// connections without a shared accept lock. A connection lives on exactly
// one worker; all workers drive the one shared cache, whose hit path is
// lock-free and whose miss path shards by key — the server adds no
// locking of its own anywhere.
//
// Batching: the server drains every complete frame buffered on a
// connection per epoll wakeup and writes all responses in one stream —
// the wire-level analogue of the BP-Wrapper insert buffers. A pipelining
// client therefore amortizes both syscalls and cache-lock acquisitions
// across the batch (bench/server_qps measures exactly this). Frames are
// served in windows of up to 32: the window's GET keys first go to
// Cache::PrefetchGets, which starts every index, cell and value line the
// window will read (MICA's staged lookup pipeline), then each frame is
// served in order.
//
// Zero-copy GET: HandleFrame appends the reply header, has the engine
// append the value bytes straight behind it (Cache::GetAppend, which on
// the value engine is one seqlock copy out of the slab arena), and
// patches the header's body_len or status — no per-GET string, no
// second copy.
//
// Flow control: responses buffer per connection and drain as the socket
// accepts them. Once a connection's unsent output crosses a high-water
// mark the worker stops reading (and parsing) that connection until the
// backlog falls below a low-water mark, so a client that pipelines
// requests without reading responses holds at most ~high-water + one
// maximum frame of server memory — TCP backpressure does the rest. A peer
// that half-closes (shutdown(SHUT_WR)) after pipelining still receives
// every response: the close is deferred until the output fully drains.
//
// The listener binds 127.0.0.1 only: qdlpd is a localhost serving layer
// (benchmarks, co-located frontends), not a hardened public endpoint.
//
// docs/SERVER.md is the operator-facing overview.

#ifndef QDLP_SRC_SERVER_SERVER_H_
#define QDLP_SRC_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/cache_api.h"
#include "src/server/protocol.h"

namespace qdlp {

// The served engine is built by MakeCache() from `cache` — the server is
// written entirely against the unified Cache interface, so any thread-safe
// engine can sit behind the wire (the default is the value-storing qdlpd
// engine; metadata-only engines serve empty values, useful for protocol
// tests).
struct QdlpdOptions {
  uint16_t port = 0;       // 0 = pick an ephemeral port; read back via port()
  size_t num_workers = 1;  // epoll threads, each with its own listener
  CacheConfig cache = DefaultCacheConfig();

  static CacheConfig DefaultCacheConfig() {
    CacheConfig config;
    config.policy = "concurrent-qdlp-fifo";
    config.capacity = 1 << 16;
    config.num_stripes = 64;
    config.value_arena_bytes = 64u << 20;
    config.max_value_len = kMaxValueLen;
    return config;
  }
};

class QdlpdServer {
 public:
  explicit QdlpdServer(const QdlpdOptions& options);
  ~QdlpdServer();

  QdlpdServer(const QdlpdServer&) = delete;
  QdlpdServer& operator=(const QdlpdServer&) = delete;

  // Binds the listeners and spawns the worker threads. Returns false (with
  // *error set) if any socket step fails; the server is then fully torn
  // down and may not be restarted.
  bool Start(std::string* error = nullptr);

  // Wakes every worker, joins the threads, closes all sockets. Idempotent;
  // also run by the destructor.
  void Stop();

  // The bound port (resolves an ephemeral request after Start()).
  uint16_t port() const { return port_; }

  // The served cache — shared with in-process users (the differential
  // tests drive the same engine through both faces).
  Cache& cache() { return *cache_; }

 private:
  struct Worker;
  struct Connection;

  bool StartWorker(Worker* worker, std::string* error);
  void RunWorker(Worker* worker);
  // Serves buffered frames (bounded by the output high-water mark),
  // flushes, re-arms epoll interest. Returns false when the connection
  // should be closed.
  bool Pump(Worker* worker, Connection* conn);
  void HandleFrame(const Frame& request, std::string* out);

  const QdlpdOptions options_;
  uint16_t port_;
  std::unique_ptr<Cache> cache_;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool started_ = false;
};

}  // namespace qdlp

#endif  // QDLP_SRC_SERVER_SERVER_H_
