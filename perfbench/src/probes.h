// Process-level probes read from outside the program: wall and CPU clocks,
// resident memory, CPU steal from /proc/stat, and the build and host facts
// every result carries as provenance.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

// steady_clock nanoseconds (the span clock).
std::int64_t NowNs();

// user+sys CPU of the whole process (all threads) and of the calling
// thread, in seconds.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

// Peak resident set of the process so far, and the current one, in MiB.
double PeakRssMb();
double CurrentRssMb();

// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();
// Steal time between two samples, in percent of all CPU time.
double StealPct(const CpuJiffies& before, const CpuJiffies& after);

// CPUs this process may run on (what `nproc` prints).
int AvailableCpus();

struct Provenance {
  std::string build_type;
  bool dchecks = false;
  bool obs_compiled = false;
  std::string compiler;
  std::string cpu_model;
  int nproc = 0;
};
Provenance BuildAndHost();

}  // namespace perfbench
