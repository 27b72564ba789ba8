// Process plumbing for the out-of-process server workloads: CPU pinning,
// per-task CPU and context-switch sums from /proc, peak RSS, and a
// supervised qdlpd child process.

#ifndef PERFBENCH_HARNESS_PROC_H_
#define PERFBENCH_HARNESS_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Sums over every thread of a process. The process-level
// /proc/<pid>/schedstat and the context-switch lines of /proc/<pid>/status
// cover the main thread only, so a multi-threaded server has to be read
// task by task.
struct TaskTotals {
  uint64_t cpu_ns = 0;         // schedstat field 1: time on CPU
  uint64_t voluntary_csw = 0;  // voluntary_ctxt_switches
  size_t tasks = 0;
};

struct TaskSample {
  long tid = 0;
  TaskTotals totals;  // this task alone (tasks == 1)
};

// Reads `<proc_dir>/task/*/{schedstat,status}`; `proc_dir` is /proc/<pid>
// (or a directory laid out like it). Threads that exit mid-read are
// skipped. False when no task could be read.
bool ReadTasks(const std::string& proc_dir, std::vector<TaskSample>* out);
bool SumTasks(const std::string& proc_dir, TaskTotals* out);

// Whole-machine CPU ticks from /proc/stat: all states, and the share a
// hypervisor gave to other guests (steal) — the noise floor of a shared VM.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();
inline double StealFraction(const CpuTicks& a, const CpuTicks& b) {
  return b.total == a.total ? 0.0
                            : static_cast<double>(b.steal - a.steal) /
                                  static_cast<double>(b.total - a.total);
}

// VmHWM of `<proc_dir>/status` in KiB, 0 when unreadable.
uint64_t PeakRssKib(const std::string& proc_dir);

// Resets this process's VmHWM to its current RSS (/proc/self/clear_refs).
bool ResetPeakRss();

// This process's user + system CPU time, all threads, in seconds.
double ProcessCpuSeconds();

std::vector<int> AllowedCpus();
// Restricts thread `tid` (0 = the calling thread) to `cpus`.
bool Pin(long tid, const std::vector<int>& cpus);

// A qdlpd child pinned to `cpus`, its stdout on a pipe. Dies with this
// process (PR_SET_PDEATHSIG) and is killed by the destructor if still
// running, so no path leaves it behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `binary args...` and waits (up to 10 s) for the serving banner,
  // reading the bound port from it.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::vector<int>& cpus, std::string* error);

  // SIGTERM, then collect stdout to EOF and reap. True when the process
  // exited with status 0; *final_line receives its "qdlpd: done." line.
  bool Stop(std::string* final_line, std::string* error);

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  std::string proc_dir() const { return "/proc/" + std::to_string(pid_); }

 private:
  bool ReadLine(std::string* line, int timeout_ms);
  void Kill();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_PROC_H_
