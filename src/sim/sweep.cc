#include "src/sim/sweep.h"

#include <cmath>
#include <unordered_map>

#include "src/sim/batch_replay.h"
#include "src/sim/simulator.h"
#include "src/sim/stream_replay.h"
#include "src/trace/dense_trace.h"
#include "src/trace/trace_source.h"
#include "src/util/check.h"
#include "src/util/thread_pool.h"

namespace qdlp {

namespace {

// A trace's cells in (fraction, policy) nesting — the order of its
// SweepPoint slots — sized from its distinct-object count.
std::vector<BatchCellSpec> TraceCells(const SweepConfig& config,
                                      uint64_t num_objects) {
  std::vector<BatchCellSpec> cells;
  cells.reserve(config.size_fractions.size() * config.policies.size());
  for (const double fraction : config.size_fractions) {
    const size_t cache_size = CacheSizeForCount(num_objects, fraction);
    for (const std::string& policy : config.policies) {
      cells.push_back(BatchCellSpec{policy, cache_size});
    }
  }
  return cells;
}

// Writes one point per cell of a trace into its slots, starting at `out`.
void WriteTracePoints(const SweepConfig& config, const std::string& trace,
                      const std::string& dataset, WorkloadClass cls,
                      const std::vector<BatchCellSpec>& cells,
                      const std::vector<SimResult>& results, SweepPoint* out) {
  QDLP_CHECK(results.size() == cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    SweepPoint& point = out[c];
    point.trace = trace;
    point.dataset = dataset;
    point.cls = cls;
    point.size_fraction = config.size_fractions[c / config.policies.size()];
    point.cache_size = cells[c].cache_size;
    point.policy = cells[c].policy;
    point.miss_ratio = results[c].miss_ratio();
  }
}

}  // namespace

std::vector<SweepPoint> RunSweepStreamed(
    const std::vector<StreamTraceSpec>& specs, const SweepConfig& config) {
  QDLP_CHECK(!config.policies.empty());
  QDLP_CHECK(!config.size_fractions.empty());

  const size_t per_trace = config.size_fractions.size() * config.policies.size();
  std::vector<SweepPoint> points(specs.size() * per_trace);

  // One task per trace, mirroring the batched engine's granularity; each
  // task opens its own source(s), so tasks share no stream state.
  ThreadPool pool(config.num_threads);
  for (size_t t = 0; t < specs.size(); ++t) {
    pool.Submit([&, t, per_trace] {
      const StreamTraceSpec& spec = specs[t];
      StreamReplayOptions replay_options;
      replay_options.chunk_size = config.stream_chunk_size;
      replay_options.mem_budget_bytes = config.stream_mem_budget_bytes;
      replay_options.spill_dir = config.stream_spill_dir;

      // Fractional cache sizes need the distinct-id count before the
      // replay starts; discover it with a counting pre-pass unless the
      // spec supplied it. Either way the count doubles as the
      // dense-universe hint, so remap-invariant cells get the same
      // direct-indexed lane the in-memory batched engine uses.
      uint64_t num_objects = spec.num_objects;
      if (num_objects == 0) {
        std::string open_error;
        auto counting = OpenTraceSource(spec.path, &open_error);
        QDLP_CHECK_MSG(counting != nullptr, open_error.c_str());
        const StreamCountResult counted =
            StreamCountObjects(*counting, replay_options);
        QDLP_CHECK_MSG(counted.ok, counted.error.c_str());
        num_objects = counted.num_objects;
      }
      replay_options.dense_universe = num_objects;
      const std::vector<BatchCellSpec> cells = TraceCells(config, num_objects);

      std::string open_error;
      auto source = OpenTraceSource(spec.path, &open_error);
      QDLP_CHECK_MSG(source != nullptr, open_error.c_str());
      const std::string trace_name = spec.name.empty() ? spec.path : spec.name;
      const StreamReplayResult replay =
          StreamReplayTrace(*source, trace_name, cells, replay_options);
      QDLP_CHECK_MSG(replay.ok, replay.error.c_str());
      WriteTracePoints(config, trace_name, spec.dataset, spec.cls, cells,
                       replay.cells, &points[t * per_trace]);
    });
  }
  pool.Wait();
  return points;
}

std::vector<SweepPoint> RunSweep(const std::vector<Trace>& traces,
                                 const SweepConfig& config) {
  QDLP_CHECK(!config.policies.empty());
  QDLP_CHECK(!config.size_fractions.empty());

  std::vector<std::vector<BatchCellSpec>> cells(traces.size());
  std::vector<std::vector<SimResult>> results(traces.size());
  for (size_t t = 0; t < traces.size(); ++t) {
    cells[t] = TraceCells(config, traces[t].num_objects);
    results[t].resize(cells[t].size());
  }

  // Every task fills preassigned result slots, so the points come out in
  // the sequential nesting (trace-major, then fraction, then policy) no
  // matter which engine ran or how its tasks were scheduled.
  ThreadPool pool(config.num_threads);
  for (size_t t = 0; t < traces.size(); ++t) {
    if (config.engine == SweepEngine::kBatched) {
      // One task per trace: densify once, then a single interleaved pass
      // drives every cell (batch_replay.h). Coarser tasks than per-cell,
      // but each does its work in one stream pass instead of cells-many,
      // so the critical path shrinks rather than grows.
      pool.Submit([&, t] {
        results[t] = BatchReplayTrace(DensifyTrace(traces[t]), cells[t],
                                      &traces[t].requests);
      });
      continue;
    }
    // Per-cell engine: one task per (trace, fraction), each cell a full
    // replay of the original trace. A whole-trace task would make the
    // longest trace times the whole fraction sweep the critical path;
    // per-(trace, fraction) tasks keep every core busy through the tail.
    for (size_t first = 0; first < cells[t].size();
         first += config.policies.size()) {
      pool.Submit([&, t, first] {
        for (size_t c = first; c < first + config.policies.size(); ++c) {
          results[t][c] = SimulatePolicy(cells[t][c].policy, traces[t],
                                         cells[t][c].cache_size);
        }
      });
    }
  }
  pool.Wait();

  const size_t per_trace = config.size_fractions.size() * config.policies.size();
  std::vector<SweepPoint> points(traces.size() * per_trace);
  for (size_t t = 0; t < traces.size(); ++t) {
    WriteTracePoints(config, traces[t].name, traces[t].dataset, traces[t].cls,
                     cells[t], results[t], &points[t * per_trace]);
  }
  return points;
}

namespace {

bool MatchesFilters(const SweepPoint& point, double size_fraction,
                    const std::string& dataset_filter, int class_filter) {
  if (std::abs(point.size_fraction - size_fraction) > 1e-12) {
    return false;
  }
  if (!dataset_filter.empty() && point.dataset != dataset_filter) {
    return false;
  }
  if (class_filter >= 0 &&
      static_cast<int>(point.cls) != class_filter) {
    return false;
  }
  return true;
}

}  // namespace

double WinFraction(const std::vector<SweepPoint>& points,
                   const std::string& challenger, const std::string& incumbent,
                   double size_fraction, const std::string& dataset_filter,
                   int class_filter) {
  std::unordered_map<std::string, double> challenger_mr;
  std::unordered_map<std::string, double> incumbent_mr;
  for (const SweepPoint& point : points) {
    if (!MatchesFilters(point, size_fraction, dataset_filter, class_filter)) {
      continue;
    }
    if (point.policy == challenger) {
      challenger_mr[point.trace] = point.miss_ratio;
    } else if (point.policy == incumbent) {
      incumbent_mr[point.trace] = point.miss_ratio;
    }
  }
  double wins = 0.0;
  size_t total = 0;
  for (const auto& [trace, challenger_value] : challenger_mr) {
    const auto it = incumbent_mr.find(trace);
    if (it == incumbent_mr.end()) {
      continue;
    }
    ++total;
    // Miss ratios land in [0, 1]; policies that agree can still differ in
    // the last few ulps when their hit counts were accumulated through
    // different float paths, so ties are epsilon-based rather than exact.
    constexpr double kTieEpsilon = 1e-9;
    if (std::abs(challenger_value - it->second) <= kTieEpsilon) {
      wins += 0.5;
    } else if (challenger_value < it->second) {
      wins += 1.0;
    }
  }
  return total == 0 ? 0.0 : wins / static_cast<double>(total);
}

std::vector<double> ReductionsVsBaseline(const std::vector<SweepPoint>& points,
                                         const std::string& policy,
                                         const std::string& baseline,
                                         double size_fraction,
                                         int class_filter) {
  std::unordered_map<std::string, double> policy_mr;
  std::unordered_map<std::string, double> baseline_mr;
  for (const SweepPoint& point : points) {
    if (!MatchesFilters(point, size_fraction, "", class_filter)) {
      continue;
    }
    if (point.policy == policy) {
      policy_mr[point.trace] = point.miss_ratio;
    } else if (point.policy == baseline) {
      baseline_mr[point.trace] = point.miss_ratio;
    }
  }
  std::vector<double> reductions;
  reductions.reserve(policy_mr.size());
  for (const auto& [trace, policy_value] : policy_mr) {
    const auto it = baseline_mr.find(trace);
    if (it == baseline_mr.end() || it->second <= 0.0) {
      continue;
    }
    reductions.push_back((it->second - policy_value) / it->second);
  }
  return reductions;
}

}  // namespace qdlp
