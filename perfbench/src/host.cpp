#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <fstream>
#include <thread>

#include "netgym/parallel.hpp"
#include "netgym/telemetry.hpp"
#include "nn/gemm.hpp"
#include "workload.hpp"

namespace perfbench {

std::string jnum(double v) {
  std::string out;
  netgym::telemetry::json::append_double(out, v);
  return out;
}

std::string jstr(const std::string& s) {
  std::string out;
  netgym::telemetry::json::append_string(out, s);
  return out;
}

std::string jobj(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ", ";
    out += jstr(kv[i].first) + ": " + kv[i].second;
  }
  return out + "}";
}

std::string jarr(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

std::string partition_json(const Partition& part, const std::string& root,
                           std::int64_t roots) {
  std::vector<std::pair<std::string, std::string>> layers;
  for (const auto& [layer, s] : part.parts) layers.emplace_back(layer, jnum(s));
  return jobj({{"root", jstr(root)},
               {"roots", jnum(static_cast<double>(roots))},
               {"total_s", jnum(part.total)},
               {"layers_s", jobj(layers)},
               {"unattributed_s", jnum(part.unattributed)},
               {"overcommitted", part.overcommitted ? "true" : "false"}});
}

std::string jnums(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (double v : values) items.push_back(jnum(v));
  return jarr(items);
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  for (int field = 0; field < 10; ++field) {
    double v = 0.0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;  // user nice system idle iowait irq softirq steal
  }
  return t;
}

std::string host_report(const Options& opt, const std::string& source_id) {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  return jobj({{"nproc", jnum(online_cpus())},
               {"cpu_model", jstr(cpu)},
               {"cpu_has_avx2_fma", nn::cpu_has_avx2_fma() ? "true" : "false"},
               {"math_mode", jstr(nn::math_mode_name(nn::math_mode()))},
               {"gemm_kernel", jstr(nn::active_kernel_name())},
               {"pool_threads", jnum(netgym::num_threads())},
               {"workload", jstr(opt.workload)},
               {"seed", jnum(static_cast<double>(opt.seed))},
               {"seconds", jnum(opt.seconds)},
               {"trace", opt.trace ? "true" : "false"},
               {"commit", jstr(source_id)}});
}

}  // namespace perfbench
