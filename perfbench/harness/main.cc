// perfbench — the harness behind run.py (README.md).
//
//   perfbench <kv-hot|web-churn|sweep> --seed N --seconds S --trace 0|1
//             --qdlpd PATH --workdir DIR
//   perfbench selftest --workdir DIR
//
// Prints one "metric <name> <value> <unit>" line per metric, then, as the
// last line, {"attempted": N, "failed": N, "metrics": {...}}. Exits 1 when
// the run could not complete or a check failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/common.h"
#include "harness/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench <kv-hot|web-churn|sweep> --seed N --seconds S "
               "--trace 0|1 --qdlpd PATH --workdir DIR\n"
               "       perfbench selftest --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  perfbench::RunOptions options;
  options.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--qdlpd") {
      options.qdlpd = value;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  if (options.workdir.empty()) {
    return Usage();
  }

  if (options.workload == "selftest") {
    const int failures = perfbench::RunSelfTest(options.workdir);
    std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
  }

  perfbench::MetricSet metrics;
  perfbench::Outcome outcome;
  bool ran = false;
  if (options.workload == "kv-hot" || options.workload == "web-churn") {
    if (options.qdlpd.empty()) {
      return Usage();
    }
    ran = perfbench::RunServerWorkload(options, &metrics, &outcome);
  } else if (options.workload == "sweep") {
    ran = perfbench::RunSweepWorkload(options, &metrics, &outcome);
  } else {
    return Usage();
  }
  if (!ran) {
    return 1;
  }
  metrics.Add("error_rate",
              perfbench::Ratio(static_cast<double>(outcome.failed),
                               static_cast<double>(outcome.attempted)),
              "ratio");
  metrics.PrintLines(stdout);
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metrics.ToJson().c_str());
  return outcome.failed == 0 ? 0 : 1;
}
