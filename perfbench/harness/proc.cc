#include "harness/proc.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "harness/common.h"

namespace perfbench {

namespace {

// Value of a "Key:   123 kB"-style line of a status file, 0 if absent.
uint64_t StatusField(const std::string& path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtoull(line.c_str() + key_len + 1, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

bool ReadTasks(const std::string& proc_dir, std::vector<TaskSample>* out) {
  out->clear();
  const std::string task_dir = proc_dir + "/task";
  DIR* dir = opendir(task_dir.c_str());
  if (dir == nullptr) {
    return false;
  }
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') {
      continue;
    }
    const std::string base = task_dir + "/" + entry->d_name;
    std::ifstream schedstat(base + "/schedstat");
    TaskSample sample;
    if (!(schedstat >> sample.totals.cpu_ns)) {
      continue;  // the thread exited between readdir and open
    }
    sample.tid = std::strtol(entry->d_name, nullptr, 10);
    sample.totals.voluntary_csw =
        StatusField(base + "/status", "voluntary_ctxt_switches");
    sample.totals.tasks = 1;
    out->push_back(sample);
  }
  closedir(dir);
  return !out->empty();
}

bool SumTasks(const std::string& proc_dir, TaskTotals* out) {
  *out = TaskTotals{};
  std::vector<TaskSample> tasks;
  if (!ReadTasks(proc_dir, &tasks)) {
    return false;
  }
  for (const TaskSample& t : tasks) {
    out->cpu_ns += t.totals.cpu_ns;
    out->voluntary_csw += t.totals.voluntary_csw;
    ++out->tasks;
  }
  return true;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) {
      break;
    }
    ticks.total += value;
    if (field == 7) {
      ticks.steal = value;
    }
  }
  return ticks;
}

uint64_t PeakRssKib(const std::string& proc_dir) {
  return StatusField(proc_dir + "/status", "VmHWM");
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

bool Pin(long tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  return sched_setaffinity(static_cast<pid_t>(tid), sizeof(set), &set) == 0;
}

ServerProcess::~ServerProcess() { Kill(); }

void ServerProcess::Kill() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
}

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::vector<int>& cpus, std::string* error) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<std::string> argv_store;
  argv_store.push_back(binary);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) {
    argv.push_back(a.data());
  }
  argv.push_back(nullptr);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) {
      _exit(126);
    }
    sched_setaffinity(0, sizeof(set), &set);
    dup2(fds[1], STDOUT_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];
  std::string line;
  while (ReadLine(&line, 10000)) {
    const char* marker = "qdlpd: serving 127.0.0.1:";
    const size_t pos = line.find(marker);
    if (pos != std::string::npos) {
      port_ = static_cast<uint16_t>(
          std::strtoul(line.c_str() + pos + std::strlen(marker), nullptr, 10));
      if (port_ != 0) {
        return true;
      }
    }
  }
  *error = "qdlpd printed no serving banner";
  Kill();
  return false;
}

bool ServerProcess::ReadLine(std::string* line, int timeout_ms) {
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
  while (true) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      *line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0 || out_fd_ < 0) {
      return false;
    }
    pollfd pfd{out_fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(left_ms));
    if (ready < 0 && errno == EINTR) {
      continue;
    }
    if (ready <= 0) {
      return false;
    }
    char chunk[4096];
    const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      if (!buffer_.empty()) {  // a last line without its newline
        *line = std::move(buffer_);
        buffer_.clear();
        return true;
      }
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool ServerProcess::Stop(std::string* final_line, std::string* error) {
  if (pid_ <= 0) {
    *error = "qdlpd is not running";
    return false;
  }
  kill(pid_, SIGTERM);
  std::string line;
  final_line->clear();
  while (ReadLine(&line, 10000)) {
    if (line.rfind("qdlpd: done.", 0) == 0) {
      *final_line = line;
    }
  }
  int status = 0;
  pid_t reaped;
  // qdlpd polls its stop flag every 100 ms; allow it 10 s before SIGKILL.
  for (int waited_ms = 0;; waited_ms += 10) {
    reaped = waitpid(pid_, &status, WNOHANG);
    if (reaped != 0 || waited_ms >= 10000) {
      break;
    }
    usleep(10000);
  }
  if (reaped == 0) {
    Kill();
    *error = "qdlpd did not exit after SIGTERM";
    return false;
  }
  pid_ = -1;
  close(out_fd_);
  out_fd_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "qdlpd exited uncleanly (status " + std::to_string(status) + ")";
    return false;
  }
  if (final_line->empty()) {
    *error = "qdlpd printed no final stats line";
    return false;
  }
  return true;
}

}  // namespace perfbench
