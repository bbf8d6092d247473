#include "probes.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "obs/runtime.h"

namespace perfbench {

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

CpuJiffies ReadCpuJiffies() {
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  std::ifstream stat("/proc/stat");
  std::string line;
  CpuJiffies j;
  if (!std::getline(stat, line)) return j;
  std::istringstream in(line);
  std::string label;
  in >> label;
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

double StealPct(const CpuJiffies& before, const CpuJiffies& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total) * 100.0;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

Provenance BuildAndHost() {
  Provenance p;
  p.build_type = PERFBENCH_BUILD_TYPE;
  p.compiler = PERFBENCH_COMPILER;
#if ALADDIN_DCHECK_IS_ON()
  p.dchecks = true;
#endif
  p.obs_compiled = ALADDIN_OBS_ENABLED != 0;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        p.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  p.nproc = AvailableCpus();
  return p;
}

}  // namespace perfbench
