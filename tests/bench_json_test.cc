// BENCH_throughput.json emitter smoke test: the writer in bench/bench_json.h
// (no google-benchmark dependency) must produce parseable JSON with the
// documented keys, since CI and docs/PERFORMANCE.md consumers load it with a
// strict parser.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_json.h"

namespace qdlp {
namespace {

std::vector<BenchJsonResult> SampleResults() {
  BenchJsonResult lru;
  lru.benchmark = "BM_Access/lru";
  lru.policy = "lru";
  lru.threads = 1;
  lru.ops_per_sec = 37664700.0;
  lru.bytes_per_object = 38.2;
  BenchJsonResult clock;
  clock.benchmark = "BM_ConcurrentClock/threads:4/real_time";
  clock.policy = "concurrent-clock";
  clock.threads = 4;
  clock.ops_per_sec = 1.25e7;
  clock.bytes_per_object = 0.0;
  return {lru, clock};
}

TEST(BenchJsonTest, ContainsExpectedKeysAndValues) {
  const std::string json = BenchJsonToString("micro_policies", SampleResults());
  for (const std::string key :
       {"\"schema_version\": 1", "\"binary\": \"micro_policies\"",
        "\"results\": [", "\"benchmark\": \"BM_Access/lru\"",
        "\"policy\": \"lru\"", "\"threads\": 1", "\"ops_per_sec\": 37664700.0",
        "\"bytes_per_object\": 38.2", "\"policy\": \"concurrent-clock\"",
        "\"threads\": 4"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing: " << key;
  }
}

// Minimal structural JSON validation: balanced braces/brackets outside
// strings, no trailing comma before a closer. Catches the emitter bugs a
// real parser would reject without needing a JSON library in the test.
void ExpectStructurallyValidJson(const std::string& json) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  char last_significant = '\0';
  for (const char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        last_significant = '"';
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back(), '{');
        ASSERT_NE(last_significant, ',') << "trailing comma before }";
        stack.pop_back();
        break;
      case ']':
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back(), '[');
        ASSERT_NE(last_significant, ',') << "trailing comma before ]";
        stack.pop_back();
        break;
      default:
        break;
    }
    if (c != ' ' && c != '\n' && c != '\t') {
      last_significant = c;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_TRUE(stack.empty()) << "unbalanced braces";
}

TEST(BenchJsonTest, OutputIsStructurallyValid) {
  ExpectStructurallyValidJson(
      BenchJsonToString("micro_policies", SampleResults()));
  ExpectStructurallyValidJson(BenchJsonToString("empty", {}));
}

TEST(BenchJsonTest, EscapesSpecialCharacters) {
  BenchJsonResult weird;
  weird.benchmark = "BM_\"quote\"/back\\slash\nnewline\ttab";
  weird.policy = std::string("ctl\x01", 4);
  const std::string json = BenchJsonToString("b", {weird});
  EXPECT_NE(json.find("BM_\\\"quote\\\"/back\\\\slash\\nnewline\\ttab"),
            std::string::npos);
  EXPECT_NE(json.find("ctl\\u0001"), std::string::npos);
  ExpectStructurallyValidJson(json);
}

TEST(BenchJsonTest, NumbersAreAlwaysFloatsAndFinite) {
  EXPECT_EQ(BenchJsonNumber(1.0), "1.0");
  EXPECT_EQ(BenchJsonNumber(0.0), "0.0");
  EXPECT_EQ(BenchJsonNumber(37664700.0), "37664700.0");
  // JSON has no NaN/Infinity; the writer clamps them to 0.
  EXPECT_EQ(BenchJsonNumber(std::nan("")), "0.0");
  EXPECT_EQ(BenchJsonNumber(1.0 / 0.0), "0.0");
  EXPECT_EQ(BenchJsonNumber(-1.0 / 0.0), "0.0");
}

TEST(BenchJsonTest, WriteRoundTripsThroughFile) {
  const std::string path = ::testing::TempDir() + "/bench_json_test.json";
  ASSERT_TRUE(WriteBenchJson(path, "micro_policies", SampleResults()));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), BenchJsonToString("micro_policies", SampleResults()));
  std::remove(path.c_str());
}

TEST(BenchJsonTest, WriteToUnwritablePathFails) {
  EXPECT_FALSE(
      WriteBenchJson("/nonexistent-dir/x/y.json", "b", SampleResults()));
}

TEST(BenchJsonTest, OutputPathHonorsEnvOverride) {
  // Default when unset.
  unsetenv("QDLP_BENCH_JSON");
  EXPECT_EQ(BenchJsonOutputPath(), "BENCH_throughput.json");
  setenv("QDLP_BENCH_JSON", "/tmp/override.json", 1);
  EXPECT_EQ(BenchJsonOutputPath(), "/tmp/override.json");
  unsetenv("QDLP_BENCH_JSON");
}

TEST(BenchJsonTest, ScalingEfficiencyBaselineAndPairing) {
  BenchJsonResult one;
  one.benchmark = "BM_ConcurrentClock/real_time";
  one.threads = 1;
  one.ops_per_sec = 1.0e7;
  BenchJsonResult four;
  four.benchmark = "BM_ConcurrentClock/threads:4/real_time";
  four.threads = 4;
  four.ops_per_sec = 3.0e7;
  BenchJsonResult unpaired;
  unpaired.benchmark = "BM_Orphan/threads:8/real_time";
  unpaired.threads = 8;
  unpaired.ops_per_sec = 5.0e6;
  BenchJsonResult unmeasured;
  unmeasured.benchmark = "BM_Empty";
  unmeasured.threads = 1;
  unmeasured.ops_per_sec = 0.0;

  std::vector<BenchJsonResult> rows = {one, four, unpaired, unmeasured};
  FillScalingEfficiency(&rows);
  // 1-thread rows are their own baseline: exactly 1.0, never 0.
  EXPECT_DOUBLE_EQ(rows[0].scaling_efficiency, 1.0);
  // ops(4) / (4 * ops(1)) = 3e7 / 4e7.
  EXPECT_DOUBLE_EQ(rows[1].scaling_efficiency, 0.75);
  // No 1-thread sibling and no measurement: untouched at 0.
  EXPECT_DOUBLE_EQ(rows[2].scaling_efficiency, 0.0);
  EXPECT_DOUBLE_EQ(rows[3].scaling_efficiency, 0.0);
}

TEST(BenchJsonTest, StatsBlockEmitsEveryDocumentedField) {
  BenchJsonResult row;
  row.benchmark = "BM_Stats";
  row.has_stats = true;
  row.stats.requests = 7;
  const std::string json = BenchJsonToString("b", {row});
  // The writer, the reporter bridge, and tools/bench_compare.py all walk
  // kCacheStatsFields; every key must appear in the emitted block,
  // including the sharded-eviction contention counters.
  for (const CacheStatsField& field : kCacheStatsFields) {
    EXPECT_NE(json.find("\"" + std::string(field.key) + "\": "),
              std::string::npos)
        << "missing stats field: " << field.key;
  }
  for (const char* key :
       {"lock_acquisitions", "lock_failures", "buffer_drops",
        "drain_batch_le8", "drain_batch_le64", "drain_batch_gt64"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing: " << key;
  }
  ExpectStructurallyValidJson(json);
}

TEST(BenchJsonTest, PolicySegmentExtraction) {
  EXPECT_EQ(PolicyFromBenchmarkName("BM_Access/lru"), "lru");
  EXPECT_EQ(PolicyFromBenchmarkName("BM_Access/qd-lp-fifo"), "qd-lp-fifo");
  EXPECT_EQ(PolicyFromBenchmarkName("BM_Access/lru/threads:4"), "lru");
  // Config-only segments fall back to the family name.
  EXPECT_EQ(PolicyFromBenchmarkName("BM_Timed/threads:4"), "BM_Timed");
  EXPECT_EQ(PolicyFromBenchmarkName("BM_Solo"), "BM_Solo");
  // UseRealTime()'s "/real_time" suffix is an ordinary segment; binaries
  // that use it supply their own namer (see throughput_scalability.cc).
  EXPECT_EQ(PolicyFromBenchmarkName("BM_GlobalLockLru/threads:4/real_time"),
            "real_time");
}

}  // namespace
}  // namespace qdlp
