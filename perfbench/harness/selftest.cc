// The harness's own checks, run before every workload: percentile
// selection, the reply verifier against injected wrong and stale replies,
// and the per-task /proc summation.

#include <sys/stat.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/common.h"
#include "harness/proc.h"
#include "harness/verify.h"
#include "harness/workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

void TestPercentiles() {
  const std::vector<double> thousand = OneTo(1000);
  const Percentile p99 = PercentileOf(thousand, 99.0);
  Expect(p99.value == 990 && p99.beyond == 10 && Supported(p99),
         "p99 of 1000 samples is rank 990 with 10 beyond");
  Expect(!Supported(PercentileOf(thousand, 99.9)),
         "p99.9 of 1000 samples has 1 sample beyond: unsupported");
  Expect(HighestSupportedPercentile(thousand).pct == 99.0,
         "1000 samples support p99, not p99.9");
  const std::vector<double> short_tail = OneTo(999);
  Expect(!Supported(PercentileOf(short_tail, 99.0)),
         "p99 of 999 samples has 9 beyond: unsupported");
  const Percentile p90 = HighestSupportedPercentile(short_tail);
  Expect(p90.pct == 90.0 && p90.value == 900,
         "999 samples fall back to p90 = 900");
  Expect(HighestSupportedPercentile(OneTo(100000)).pct == 99.99,
         "100000 samples support p99.99, with exactly 10 beyond");
  Expect(HighestSupportedPercentile(OneTo(99999)).pct == 99.9,
         "99999 samples support p99.9 but not p99.99");
  const Percentile median = HighestSupportedPercentile(OneTo(5));
  Expect(median.pct == 50.0 && median.value == 3,
         "5 samples report only the median");
  Expect(Median({4, 1, 3, 2}) == 2.5 && Median({3, 1, 2}) == 2,
         "median of even and odd samples");
}

qdlp::OwnedFrame Reply(qdlp::Op op, qdlp::Status status, uint64_t key,
                       std::string body = "") {
  qdlp::OwnedFrame f;
  f.opcode = op;
  f.status = status;
  f.key = key;
  f.body = std::move(body);
  return f;
}

void TestVerifier() {
  const ValueSpec values{7, 32, 8192};
  std::string v1;
  std::string v2;
  values.Fill(42, 1, &v1);
  values.Fill(42, 2, &v2);
  Expect(values.Matches(42, 1, v1) && values.Matches(42, 2, v2),
         "generated values match themselves");
  std::string corrupt = v1;
  corrupt[corrupt.size() / 2] ^= 0x10;
  Expect(!values.Matches(42, 1, corrupt), "a flipped byte is caught");
  if (v1.size() == v2.size() && v1.size() >= 16) {
    std::string torn = v1.substr(0, 8) + v2.substr(8);
    Expect(!values.Matches(42, 2, torn), "a torn value is caught");
  }
  std::string torn_same_len = v2;
  torn_same_len.replace(0, 8, v1.substr(0, 8));
  Expect(!values.Matches(42, 2, torn_same_len), "a word of another version is caught");
  Expect(!values.Matches(43, 1, v1), "another key's value is caught");
  Expect(!values.Matches(42, 1, v1 + "x"), "a wrong length is caught");

  // Connection model: key 42 is owned by connection 0 of 2.
  KeyModel model(&values, 100, 2);
  using qdlp::Op;
  using qdlp::Status;
  Expect(!model.OnGet(42, Reply(Op::kGet, Status::kOk, 42, v1)) &&
             model.failures(Failure::kNeverWritten) == 1,
         "a hit on a never-written key is a failure");
  Expect(model.OnGet(42, Reply(Op::kGet, Status::kMiss, 42)),
         "a miss is always allowed");
  Expect(model.OnSet(42, 1, Reply(Op::kSet, Status::kOk, 42)) &&
             model.OnGet(42, Reply(Op::kGet, Status::kOk, 42, v1)),
         "a hit on the stored version passes");
  Expect(!model.OnGet(42, Reply(Op::kGet, Status::kOk, 42, corrupt)) &&
             model.failures(Failure::kWrongValue) == 1,
         "an injected wrong value is a failure");
  Expect(model.OnSet(42, model.NextVersion(42), Reply(Op::kSet, Status::kOk, 42)) &&
             !model.OnGet(42, Reply(Op::kGet, Status::kOk, 42, v1)) &&
             model.failures(Failure::kWrongValue) == 2,
         "the previous version after an overwrite is a stale failure");
  Expect(model.OnGet(42, Reply(Op::kGet, Status::kOk, 42, v2)),
         "the overwritten version passes");
  Expect(model.OnDelete(42, Reply(Op::kDelete, Status::kOk, 42)) &&
             !model.OnGet(42, Reply(Op::kGet, Status::kOk, 42, v2)) &&
             model.failures(Failure::kStaleAfterDelete) == 1,
         "a hit after the connection's own DELETE is a failure");
  Expect(!model.OnDelete(42, Reply(Op::kDelete, Status::kOk, 42)) &&
             model.failures(Failure::kStaleAfterDelete) == 2,
         "a DELETE that finds a deleted key is a failure");
  Expect(model.OnSet(42, 2, Reply(Op::kSet, Status::kOk, 42)) &&
             model.OnGet(42, Reply(Op::kGet, Status::kOk, 42, v2)),
         "a SET after the DELETE makes hits valid again");
  Expect(!model.OnSet(42, 2, Reply(Op::kSet, Status::kNoSpace, 42)) &&
             model.nospace() == 1 && model.failures(Failure::kBadStatus) == 1,
         "kNoSpace is a failure");
  Expect(!model.OnGet(42, Reply(Op::kGet, Status::kBadRequest, 42)) &&
             model.failures(Failure::kBadStatus) == 2,
         "kBadRequest is a failure");
  Expect(!model.OnGet(42, Reply(Op::kGet, Status::kOk, 44, v2)) &&
             model.failures(Failure::kMismatchedReply) == 1,
         "a reply for another key is a failure");
  Expect(model.failures() == 8, "every injected fault was counted once");
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

void TestTaskSums(const std::string& workdir) {
  // A fake /proc/<pid> with three threads, one of which exited mid-read.
  const std::string root = workdir + "/selftest-proc";
  mkdir(root.c_str(), 0755);
  mkdir((root + "/task").c_str(), 0755);
  const struct {
    const char* tid;
    const char* schedstat;
    const char* status;
  } tasks[] = {
      {"100", "1000 5 3\n",
       "Name:\tqdlpd\nvoluntary_ctxt_switches:\t7\nnonvoluntary_ctxt_switches:\t1\n"},
      {"101", "2500 0 1\n", "voluntary_ctxt_switches:\t30\nnonvoluntary_ctxt_switches:\t2\n"},
      {"102", "7 0 0\n", "voluntary_ctxt_switches:\t0\nnonvoluntary_ctxt_switches:\t0\n"},
      {"103", nullptr, nullptr},
  };
  bool wrote = true;
  for (const auto& t : tasks) {
    const std::string dir = root + "/task/" + t.tid;
    mkdir(dir.c_str(), 0755);
    if (t.schedstat != nullptr) {
      wrote = WriteFile(dir + "/schedstat", t.schedstat) &&
              WriteFile(dir + "/status", t.status) && wrote;
    }
  }
  Expect(wrote, "fake proc tree written");
  TaskTotals sum;
  Expect(SumTasks(root, &sum) && sum.tasks == 3 && sum.cpu_ns == 3507 &&
             sum.voluntary_csw == 37,
         "schedstat and context switches are summed over every task");

  // Live: CPU burnt by a second thread shows in the per-task sum but not
  // in the process-level schedstat, which covers the main thread only. The
  // burner counts its own CPU time, so steal on a shared host cannot make
  // the check flaky.
  constexpr int64_t kBurnNs = 50'000'000;
  std::atomic<bool> done{false};
  std::atomic<int64_t> burnt_ns{0};
  std::thread burner([&] {
    volatile uint64_t x = 0;
    int64_t cpu_ns = 0;
    while (cpu_ns < kBurnNs) {
      for (int i = 0; i < 100000; ++i) {
        x = x + 1;
      }
      timespec ts{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
      cpu_ns = int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
    }
    burnt_ns = cpu_ns;
    while (!done) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (burnt_ns == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  uint64_t main_only = 0;
  {
    std::ifstream in("/proc/self/schedstat");
    in >> main_only;
  }
  TaskTotals live;
  const bool summed = SumTasks("/proc/self", &live);
  done = true;
  burner.join();
  Expect(summed && live.tasks >= 2 &&
             live.cpu_ns >= main_only + static_cast<uint64_t>(burnt_ns) * 9 / 10,
         "the per-task sum includes a second thread's CPU");
}

}  // namespace

int RunSelfTest(const std::string& workdir) {
  g_failures = 0;
  TestPercentiles();
  TestVerifier();
  TestTaskSums(workdir);
  return g_failures;
}

}  // namespace perfbench
