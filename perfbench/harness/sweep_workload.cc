// sweep: the paper-reproduction path. Setup writes traces of all ten
// Table-1 registry families as QDT1 files (zstd-framed when the decode
// layer is built in); each round replays them with RunSweepStreamed over
// the Fig-2/Fig-5 policy set at the 0.1% and 10% sizes on nproc threads.
// The points are checked against the per-cell SimulatePolicy reference for
// one trace of every family, outside the timed region.
//
// A traced run alternates untraced rounds with traced ones, which replay
// each trace with StreamReplayTrace on the benchmark's own pool so every
// trace gets a span, then times DrainTraceSource per file and
// BatchReplayTrace per policy, single-threaded.

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/common.h"
#include "harness/proc.h"
#include "harness/workloads.h"
#include "src/sim/batch_replay.h"
#include "src/sim/simulator.h"
#include "src/sim/stream_replay.h"
#include "src/sim/sweep.h"
#include "src/trace/byte_source.h"
#include "src/trace/dense_trace.h"
#include "src/trace/registry.h"
#include "src/trace/trace_source.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace perfbench {
namespace {

constexpr int kTracesPerFamily = 8;
// Traces of 50 000 requests (registry scale 0.25): four per family keep a
// round at 2 M requests while averaging over more of each family.
constexpr double kTraceScale = 0.25;
constexpr int kSetups = 3;
constexpr int kMinRounds = 4;
const std::vector<double> kFractions = {0.001, 0.10};
const std::vector<std::string> kPolicies = {
    "lru", "fifo", "fifo-reinsertion", "clock2", "sieve", "s3fifo",
    "qd-lp-fifo", "arc", "qd-arc", "lirs", "qd-lirs"};

struct TraceFile {
  qdlp::StreamTraceSpec spec;
  uint64_t num_requests = 0;
  bool verify = false;  // the family's reference-checked trace
};

std::string Qdt1Bytes(const qdlp::Trace& trace) {
  std::string bytes = "QDT1";
  auto put_u64 = [&bytes](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<char>(v >> (8 * i) & 0xFF));
    }
  };
  bytes.reserve(12 + 8 * trace.requests.size());
  put_u64(trace.requests.size());
  for (const qdlp::ObjectId id : trace.requests) {
    put_u64(id);
  }
  return bytes;
}

// Generates and writes every trace, single threaded; returns false on an
// I/O error. The phases are timed in CPU seconds, which exclude time the
// hypervisor gives to other guests (see SetupCost in
// server_workloads.cc); *wall_s is the wall time of both.
bool Setup(const RunOptions& options, std::vector<TraceFile>* files,
           double* generate_s, double* write_s, double* wall_s) {
  files->clear();
  const int64_t start = NowNs();
  double t0 = ProcessCpuSeconds();
  std::vector<qdlp::Trace> traces;
  for (qdlp::DatasetSpec spec : qdlp::Table1Datasets()) {
    spec.seed = qdlp::SplitMix64(spec.seed ^ qdlp::SplitMix64(options.seed));
    for (int i = 0; i < kTracesPerFamily; ++i) {
      traces.push_back(qdlp::MakeTrace(spec, i, kTraceScale));
    }
  }
  *generate_s = ProcessCpuSeconds() - t0;
  t0 = ProcessCpuSeconds();
  const bool zstd = qdlp::ZstdSupported();
  for (size_t i = 0; i < traces.size(); ++i) {
    const qdlp::Trace& trace = traces[i];
    TraceFile file;
    file.spec.path = options.workdir + "/sweep-" + std::to_string(i) +
                     (zstd ? ".bin.zst" : ".bin");
    file.spec.name = trace.name;
    file.spec.dataset = trace.dataset;
    file.spec.cls = trace.cls;
    file.spec.num_objects = trace.num_objects;
    file.num_requests = trace.requests.size();
    file.verify = i % kTracesPerFamily == 0;
    std::string bytes = Qdt1Bytes(trace);
    if (zstd) {
      std::string compressed;
      if (!qdlp::ZstdCompress(bytes, &compressed)) {
        return false;
      }
      bytes.swap(compressed);
    }
    FILE* out = std::fopen(file.spec.path.c_str(), "wb");
    if (out == nullptr) {
      return false;
    }
    const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
    if (std::fclose(out) != 0 || !ok) {
      return false;
    }
    files->push_back(std::move(file));
  }
  *write_s = ProcessCpuSeconds() - t0;
  *wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  return true;
}

qdlp::SweepConfig Config() {
  qdlp::SweepConfig config;
  config.policies = kPolicies;
  config.size_fractions = kFractions;
  config.num_threads = std::thread::hardware_concurrency();
  return config;
}

// The traced counterpart of RunSweepStreamed: the same per-trace replay on
// a pool of the same size, with one span per trace.
std::vector<qdlp::SweepPoint> TracedSweep(const std::vector<TraceFile>& files,
                                          std::vector<SpanLog>* logs) {
  const qdlp::SweepConfig config = Config();
  const size_t per_trace = kFractions.size() * kPolicies.size();
  std::vector<qdlp::SweepPoint> points(files.size() * per_trace);
  qdlp::ThreadPool pool(config.num_threads);
  for (size_t t = 0; t < files.size(); ++t) {
    pool.Submit([&, t] {
      const qdlp::StreamTraceSpec& spec = files[t].spec;
      std::vector<qdlp::BatchCellSpec> cells;
      for (const double fraction : kFractions) {
        for (const std::string& policy : kPolicies) {
          cells.push_back({policy, qdlp::CacheSizeForCount(spec.num_objects, fraction)});
        }
      }
      qdlp::StreamReplayOptions options;
      options.chunk_size = config.stream_chunk_size;
      options.dense_universe = spec.num_objects;
      auto source = qdlp::OpenTraceSource(spec.path);
      if (source == nullptr) {
        return;
      }
      SpanLog& log = (*logs)[t];
      const uint32_t span = log.Begin("sim.stream_replay", t);
      const qdlp::StreamReplayResult result =
          qdlp::StreamReplayTrace(*source, spec.name, cells, options);
      log.End(span);
      if (!result.ok) {
        return;
      }
      for (size_t c = 0; c < cells.size(); ++c) {
        qdlp::SweepPoint& point = points[t * per_trace + c];
        point.trace = spec.name;
        point.dataset = spec.dataset;
        point.cls = spec.cls;
        point.size_fraction = kFractions[c / kPolicies.size()];
        point.cache_size = cells[c].cache_size;
        point.policy = cells[c].policy;
        point.miss_ratio = result.cells[c].miss_ratio();
      }
    });
  }
  pool.Wait();
  return points;
}

bool SamePoints(const std::vector<qdlp::SweepPoint>& a,
                const std::vector<qdlp::SweepPoint>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].trace != b[i].trace || a[i].policy != b[i].policy ||
        a[i].cache_size != b[i].cache_size || a[i].miss_ratio != b[i].miss_ratio) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool RunSweepWorkload(const RunOptions& options, MetricSet* metrics,
                      Outcome* outcome) {
  std::vector<TraceFile> files;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> write_s;
  std::vector<double> setup_wall_s;
  for (int i = 0; i < kSetups; ++i) {
    double gen = 0;
    double write = 0;
    double wall = 0;
    if (!Setup(options, &files, &gen, &write, &wall)) {
      std::fprintf(stderr, "perfbench: cannot write traces under %s\n",
                   options.workdir.c_str());
      return false;
    }
    generate_s.push_back(gen);
    write_s.push_back(write);
    setup_s.push_back(gen + write);
    setup_wall_s.push_back(wall);
  }
  std::vector<qdlp::StreamTraceSpec> specs;
  double requests = 0;
  for (const TraceFile& f : files) {
    specs.push_back(f.spec);
    requests += static_cast<double>(f.num_requests);
  }
  const double cells = static_cast<double>(kFractions.size() * kPolicies.size());
  const double replays = requests * cells;  // request x cell pairs per round
  const qdlp::SweepConfig config = Config();

  // Timed rounds. Without the VmHWM reset, peak_rss_mib would be the
  // peak of the setup passes, so a failed reset fails the run.
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "perfbench: cannot reset VmHWM via /proc/self/clear_refs\n");
    return false;
  }
  std::vector<qdlp::SweepPoint> reference_points;
  std::vector<double> rps;
  std::vector<double> rps_per_core;
  std::vector<double> traced_rps;
  std::vector<SpanLog> traced_logs;
  double traced_busy_ns = 0;
  double traced_wall_ns = 0;
  double traced_replays = 0;
  const CpuTicks ticks_begin = ReadCpuTicks();
  const int64_t measure_start = NowNs();
  for (int round = 0;
       round < kMinRounds ||
       static_cast<double>(NowNs() - measure_start) * 1e-9 < options.seconds;
       ++round) {
    const bool traced = options.trace && round % 2 == 1;
    std::vector<SpanLog> logs(traced ? files.size() : 0);
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    const std::vector<qdlp::SweepPoint> points =
        traced ? TracedSweep(files, &logs) : qdlp::RunSweepStreamed(specs, config);
    const double wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    const double cpu_s = ProcessCpuSeconds() - cpu0;
    if (round == 0) {
      reference_points = points;
    }
    ++outcome->attempted;
    if (!SamePoints(points, reference_points)) {
      std::fprintf(stderr, "perfbench: round %d points differ from round 0\n", round);
      ++outcome->failed;
    }
    if (traced) {
      traced_rps.push_back(replays / wall_s);
      for (SpanLog& log : logs) {
        for (const auto& [name, totals] : log.Aggregate()) {
          traced_busy_ns += totals.total_ns;
        }
        traced_logs.push_back(std::move(log));
      }
      traced_wall_ns += wall_s * 1e9;
      traced_replays += replays;
    } else {
      rps.push_back(replays / wall_s);
      rps_per_core.push_back(Ratio(replays, cpu_s));
    }
  }
  const CpuTicks ticks_end = ReadCpuTicks();
  const double peak_rss_mib = static_cast<double>(PeakRssKib("/proc/self")) / 1024.0;

  // Reference check, outside the timed region: decode one trace per family
  // and compare each of its points with the per-cell simulator.
  const size_t per_trace = kFractions.size() * kPolicies.size();
  SpanLog decode_spans(options.trace);
  std::vector<qdlp::Trace> decoded(files.size());
  for (size_t t = 0; t < files.size(); ++t) {
    if (!files[t].verify && !options.trace) {
      continue;
    }
    auto source = qdlp::OpenTraceSource(files[t].spec.path);
    const uint32_t span = decode_spans.Begin("trace.decode", t);
    std::optional<qdlp::Trace> trace =
        source == nullptr ? std::nullopt : qdlp::DrainTraceSource(*source);
    decode_spans.End(span);
    ++outcome->attempted;
    if (!trace.has_value() || trace->requests.size() != files[t].num_requests) {
      std::fprintf(stderr, "perfbench: cannot decode %s\n", files[t].spec.path.c_str());
      ++outcome->failed;
      continue;
    }
    decoded[t] = std::move(*trace);
  }
  std::vector<double> reference_miss(reference_points.size(), -1.0);
  {
    qdlp::ThreadPool pool(config.num_threads);
    for (size_t t = 0; t < files.size(); ++t) {
      if (!files[t].verify || decoded[t].requests.empty()) {
        continue;
      }
      for (size_t c = 0; c < per_trace; ++c) {
        pool.Submit([&, t, c] {
          const qdlp::SweepPoint& point = reference_points[t * per_trace + c];
          reference_miss[t * per_trace + c] =
              qdlp::SimulatePolicy(point.policy, decoded[t], point.cache_size)
                  .miss_ratio();
        });
      }
    }
    pool.Wait();
  }
  for (size_t i = 0; i < reference_points.size(); ++i) {
    if (!files[i / per_trace].verify) {
      continue;
    }
    ++outcome->attempted;
    if (reference_miss[i] != reference_points[i].miss_ratio) {
      std::fprintf(stderr,
                   "perfbench: %s %s at %zu: streamed miss ratio %.17g, "
                   "reference %.17g\n",
                   reference_points[i].trace.c_str(),
                   reference_points[i].policy.c_str(),
                   reference_points[i].cache_size, reference_points[i].miss_ratio,
                   reference_miss[i]);
      ++outcome->failed;
    }
  }

  // Request-weighted miss ratio of each policy at each size.
  std::map<std::string, double> misses;
  std::map<std::string, double> lookups;
  for (size_t i = 0; i < reference_points.size(); ++i) {
    const qdlp::SweepPoint& p = reference_points[i];
    const double n = static_cast<double>(files[i / per_trace].num_requests);
    char key[96];
    std::snprintf(key, sizeof(key), "%s.miss_ratio_%g", p.policy.c_str(), p.size_fraction);
    misses[key] += p.miss_ratio * n;
    lookups[key] += n;
    if (p.policy == "qd-lp-fifo") {
      misses["qd-lp-fifo"] += p.miss_ratio * n;
      lookups["qd-lp-fifo"] += n;
    }
  }

  metrics->Add("throughput_rps", Median(rps), "1/s");
  metrics->Add("rps_per_server_core", Median(rps_per_core), "1/s");
  metrics->Add("hit_ratio", 1.0 - misses["qd-lp-fifo"] / lookups["qd-lp-fifo"], "ratio");
  metrics->Add("peak_rss_mib", peak_rss_mib, "MiB");
  metrics->Add("setup_s", Median(setup_s), "s");
  metrics->Add("setup_wall_s", Median(setup_wall_s), "s");
  metrics->Add("replay_rps", Median(rps), "1/s");
  metrics->Add("rounds", static_cast<double>(rps.size()), "count");
  metrics->Add("host.steal_frac", StealFraction(ticks_begin, ticks_end), "ratio");
  metrics->Add("traces", static_cast<double>(files.size()), "count");
  metrics->Add("requests_per_round", requests, "count");

  if (!options.trace) {
    return true;
  }

  // Per-layer metrics.
  SpanLog policy_spans;
  for (size_t t = 0; t < files.size(); ++t) {
    const qdlp::DenseTrace dense = qdlp::DensifyTrace(decoded[t]);
    for (size_t p = 0; p < kPolicies.size(); ++p) {
      std::vector<qdlp::BatchCellSpec> cells;
      for (const double fraction : kFractions) {
        cells.push_back({kPolicies[p],
                         qdlp::CacheSizeForCount(files[t].spec.num_objects, fraction)});
      }
      const std::string name = "policies." + kPolicies[p];
      const uint32_t span = policy_spans.Begin(name.c_str(), t);
      const std::vector<qdlp::SimResult> results = qdlp::BatchReplayTrace(dense, cells);
      policy_spans.End(span);
      // The single-policy pass must reproduce the grid's points.
      for (size_t f = 0; f < cells.size(); ++f) {
        ++outcome->attempted;
        const size_t point = t * per_trace + f * kPolicies.size() + p;
        if (results[f].miss_ratio() != reference_points[point].miss_ratio) {
          ++outcome->failed;
        }
      }
    }
  }
  const double overhead = CalibrateSpanOverheadNs();
  const auto decode = decode_spans.Aggregate();
  const auto policy_totals = policy_spans.Aggregate();
  metrics->Add("trace.decode_ns_per_req",
               (decode.at("trace.decode").total_ns -
                overhead * static_cast<double>(decode.at("trace.decode").count)) /
                   requests,
               "ns");
  metrics->Add("sim.stream_replay_ns_per_cell_req", traced_busy_ns / traced_replays, "ns");
  metrics->Add("sim.pool_busy_frac",
               Ratio(traced_busy_ns,
                     traced_wall_ns * static_cast<double>(config.num_threads)),
               "ratio");
  for (const std::string& policy : kPolicies) {
    const SpanLog::Totals& t = policy_totals.at("policies." + policy);
    metrics->Add("policies." + policy + ".ns_per_req",
                 (t.total_ns - overhead * static_cast<double>(t.count)) /
                     (requests * static_cast<double>(kFractions.size())),
                 "ns");
    for (const double fraction : kFractions) {
      char key[96];
      std::snprintf(key, sizeof(key), "%s.miss_ratio_%g", policy.c_str(), fraction);
      metrics->Add(std::string("policies.") + key, misses[key] / lookups[key], "ratio");
    }
  }
  metrics->Add("trace.generate_s", Median(generate_s), "s");
  metrics->Add("trace.write_s", Median(write_s), "s");
  metrics->Add("tracing.overhead_frac", 1.0 - Ratio(Median(traced_rps), Median(rps)),
               "ratio");

  if (!options.workdir.empty()) {
    const std::string path = options.workdir + "/spans-sweep-seed" +
                             std::to_string(options.seed) + ".csv";
    if (FILE* out = std::fopen(path.c_str(), "w")) {
      std::fprintf(out, "thread,name,batch,parent,start_ns,end_ns\n");
      int thread = 0;
      for (const SpanLog& log : traced_logs) {
        log.WriteCsv(out, thread++);
      }
      decode_spans.WriteCsv(out, thread++);
      policy_spans.WriteCsv(out, thread);
      std::fclose(out);
      std::printf("spans %s\n", path.c_str());
    }
  }
  return true;
}

}  // namespace perfbench
