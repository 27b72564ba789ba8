// The benchmark's workloads (README.md): two served out of process by
// qdlpd, one replayed in process by the sweep simulator.

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <string>

#include "harness/common.h"

namespace perfbench {

// "kv-hot" and "web-churn". Returns false on a setup or transport error
// that leaves no result; check failures are counted in *outcome instead.
bool RunServerWorkload(const RunOptions& options, MetricSet* metrics,
                       Outcome* outcome);

// "sweep".
bool RunSweepWorkload(const RunOptions& options, MetricSet* metrics,
                      Outcome* outcome);

// The harness's own checks: percentile selection, the reply verifier and
// the per-task /proc summation. Returns the number of failed checks.
int RunSelfTest(const std::string& workdir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
