// Shared pieces of the perfbench harness: the clock, percentile selection,
// the metric set a run prints, and the in-memory span log of a traced run.

#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A percentile is reported only when at least this many samples lie
// beyond it; below that the tail is one or two outliers, not a percentile.
inline constexpr size_t kMinSamplesBeyond = 10;

struct Percentile {
  double pct = 0.0;
  double value = 0.0;
  size_t samples = 0;  // sample count the percentile was taken over
  size_t beyond = 0;   // samples strictly above its rank
};

// Nearest-rank percentile of an ascending sample: the value at rank
// ceil(p/100 * n), with the count of samples ranked above it.
inline Percentile PercentileOf(const std::vector<double>& sorted, double pct) {
  Percentile out;
  out.pct = pct;
  out.samples = sorted.size();
  if (sorted.empty()) {
    return out;
  }
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  return out;
}

inline bool Supported(const Percentile& p) {
  return p.samples > 0 && p.beyond >= kMinSamplesBeyond;
}

// The highest of `candidates` (descending) with at least kMinSamplesBeyond
// samples beyond it; the median when none qualifies.
inline Percentile HighestSupportedPercentile(
    const std::vector<double>& sorted,
    std::initializer_list<double> candidates = {99.99, 99.9, 99.0, 90.0}) {
  for (const double pct : candidates) {
    const Percentile p = PercentileOf(sorted, pct);
    if (Supported(p)) {
      return p;
    }
  }
  return PercentileOf(sorted, 50.0);
}

inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// The named metrics of one run, in insertion order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }

  // One "metric <name> <value> <unit>" line per metric.
  void PrintLines(FILE* out) const {
    for (const Entry& e : entries_) {
      std::fprintf(out, "metric %-44s %.17g %s\n", e.name.c_str(), e.value,
                   e.unit.c_str());
    }
  }

  std::string ToJson() const {
    std::string json = "{";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const double value = std::isfinite(e.value) ? e.value : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      json += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + e.unit + "\"}";
    }
    return json + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Spans of a traced run: name, start, end, parent span and batch id, kept
// in memory and written out when the run ends. A span's self time is its
// duration minus the durations of its children (children never overlap:
// every span log belongs to one thread).
class SpanLog {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  explicit SpanLog(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  uint32_t Begin(const char* name, uint64_t batch, uint32_t parent = kNone) {
    if (!enabled_) {
      return kNone;
    }
    spans_.push_back(Span{NameId(name), parent, batch, 0, 0});
    spans_.back().start_ns = NowNs();
    return static_cast<uint32_t>(spans_.size() - 1);
  }

  // Ends span `id`; `rename` (optional) relabels it, for a call whose
  // outcome (hit or miss) is known only once it returns.
  void End(uint32_t id, const char* rename = nullptr) {
    if (id == kNone) {
      return;
    }
    const int64_t end = NowNs();
    Span& span = spans_[id];
    span.end_ns = end;
    if (rename != nullptr) {
      span.name = NameId(rename);
    }
  }

  struct Totals {
    uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  // Per-name call count, total and self time.
  std::map<std::string, Totals> Aggregate() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
      if (spans_[i].parent != kNone) {
        self[spans_[i].parent] -=
            static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
      }
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[names_[spans_[i].name]];
      ++t.count;
      t.total_ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
      t.self_ns += self[i];
    }
    return out;
  }

  // Appends "thread,name,batch,parent,start_ns,end_ns" rows.
  void WriteCsv(FILE* out, int thread) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%d,%s,%llu,%lld,%lld,%lld\n", thread,
                   names_[s.name].c_str(),
                   static_cast<unsigned long long>(s.batch),
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }

  void Reserve(size_t n) {
    if (enabled_) {
      spans_.reserve(n);
    }
  }

 private:
  struct Span {
    uint32_t name;
    uint32_t parent;
    uint64_t batch;
    int64_t start_ns;
    int64_t end_ns;
  };

  uint32_t NameId(const char* name) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        return static_cast<uint32_t>(i);
      }
    }
    names_.emplace_back(name);
    return static_cast<uint32_t>(names_.size() - 1);
  }

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// Median cost of an empty span: what one Begin/End pair adds to a timed
// call. Per-call ledger figures subtract it.
inline double CalibrateSpanOverheadNs() {
  SpanLog log;
  constexpr int kSamples = 20000;
  log.Reserve(kSamples);
  for (int i = 0; i < kSamples; ++i) {
    log.End(log.Begin("empty", 0));
  }
  const auto totals = log.Aggregate();
  return totals.at("empty").total_ns / kSamples;
}

// Mean self time per call of `name`, less the span overhead; 0 when the
// run made no such call.
inline double PerCallNs(const std::map<std::string, SpanLog::Totals>& totals,
                        const std::string& name, double overhead_ns) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) {
    return 0.0;
  }
  return it->second.self_ns / static_cast<double>(it->second.count) -
         overhead_ns;
}

inline uint64_t CallCount(const std::map<std::string, SpanLog::Totals>& totals,
                          const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0 : it->second.count;
}

// What every workload reports besides its metrics: operations attempted
// and the ones that failed a check.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string qdlpd;    // path of the qdlpd binary (server workloads)
  std::string workdir;  // scratch directory for trace files and spans
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
