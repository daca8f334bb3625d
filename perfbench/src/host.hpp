#pragma once

#include <string>

#include "workload.hpp"

namespace perfbench {

/// CPUs this process may run on (the affinity mask, as `nproc` counts).
int online_cpus();

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

/// Cumulative CPU time of the whole machine from /proc/stat, in clock ticks:
/// all states, and the share a hypervisor gave to other guests ("steal").
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
CpuTicks cpu_ticks();

/// Host and settings of a result: nproc, CPU model, AVX2/FMA support, math
/// mode and kernel, pool threads, workload, seed, and the source identity.
std::string host_report(const Options& opt, const std::string& source_id);

}  // namespace perfbench
