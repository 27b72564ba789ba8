// qdlpd — localhost cache server over the QD-LP-FIFO core.
//
//   qdlpd --port=7070 --capacity=1048576 --arena-mb=256
//         --workers=2 --shards=8
//
// Without --shards the eviction-domain count follows the worker count
// (QdlpdOptions::DefaultShards); every domain needs at least 8 MiB of the
// arena, so an explicit --shards that splits it thinner is rejected.
//
// Runs until SIGINT/SIGTERM, then prints a final stats line. See
// docs/SERVER.md for the protocol and bench/server_qps for the matching
// load generator.

#include <signal.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <thread>

#include "src/concurrent/concurrent_qdlp_fifo.h"
#include "src/obs/cache_stats.h"
#include "src/server/server.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

// Parses a whole decimal number within [min, max]: no sign, no trailing
// characters, no overflow.
bool ParseNumber(const std::string& text, size_t min, size_t max,
                 size_t* out) {
  size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    return false;
  }
  *out = value;
  return true;
}

int Usage() {
  fprintf(stderr,
          "usage: qdlpd [--port=N] [--capacity=N] [--arena-mb=N]\n"
          "             [--workers=N] [--shards=N] [--stripes=N]\n"
          "  --arena-mb must give every eviction domain at least 8 MiB\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  qdlp::QdlpdOptions options;
  options.cache.capacity = 1 << 20;
  size_t port = 7070;
  size_t arena_mb = 256;
  size_t shards = 0;  // 0 = not given: DefaultShards
  // Every numeric flag with the range the server can run with: capacity
  // needs a probation and a main slot and fits a 31-bit location, and the
  // value store addresses at most 32 GiB per arena (and needs one; with
  // none the engine would be metadata-only and serve empty values).
  const struct {
    const char* name;
    size_t min;
    size_t max;
    size_t* value;
  } kFlags[] = {
      {"--port=", 0, 65535, &port},
      {"--capacity=", 2, 0x7FFFFFFF, &options.cache.capacity},
      {"--arena-mb=", 1, 32768, &arena_mb},
      {"--workers=", 1, SIZE_MAX, &options.num_workers},
      {"--shards=", 1, SIZE_MAX, &shards},
      {"--stripes=", 1, SIZE_MAX, &options.cache.num_stripes},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool parsed = false;
    for (const auto& flag : kFlags) {
      if (arg.rfind(flag.name, 0) == 0) {
        parsed = ParseNumber(arg.substr(strlen(flag.name)), flag.min,
                             flag.max, flag.value);
        break;
      }
    }
    if (!parsed) {
      return Usage();
    }
  }
  options.port = static_cast<uint16_t>(port);
  options.cache.value_arena_bytes = arena_mb << 20;
  options.cache.num_shards =
      shards != 0 ? shards
                  : qdlp::QdlpdOptions::DefaultShards(
                        options.num_workers, options.cache.value_arena_bytes);
  if (!qdlp::QdlpdOptions::ArenaCoversShards(options.cache.value_arena_bytes,
                                             options.cache.num_shards)) {
    return Usage();
  }

  signal(SIGINT, HandleSignal);
  signal(SIGTERM, HandleSignal);

  qdlp::QdlpdServer server(options);
  std::string error;
  if (!server.Start(&error)) {
    fprintf(stderr, "qdlpd: start failed: %s\n", error.c_str());
    return 1;
  }
  // The domain count the engine built, after rounding to a power of two
  // and halving to fit the capacity.
  const auto& engine =
      dynamic_cast<const qdlp::ConcurrentQdLpFifo&>(server.cache());
  printf("qdlpd: serving 127.0.0.1:%u (capacity=%zu objects, arena=%zu MiB, "
         "workers=%zu, shards=%zu)\n",
         server.port(), options.cache.capacity,
         options.cache.value_arena_bytes >> 20, options.num_workers,
         engine.num_shards());
  fflush(stdout);

  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();

  const qdlp::CacheStats stats = server.cache().Stats();
  printf("qdlpd: done. requests=%llu hits=%llu misses=%llu inserts=%llu "
         "evictions=%llu size=%llu\n",
         static_cast<unsigned long long>(stats.requests),
         static_cast<unsigned long long>(stats.hits),
         static_cast<unsigned long long>(stats.misses),
         static_cast<unsigned long long>(stats.inserts),
         static_cast<unsigned long long>(stats.evictions),
         static_cast<unsigned long long>(stats.size));
  return 0;
}
