// perfbench: the repository benchmark's measuring program. perfbench/run.py
// builds it and runs it; see perfbench/README.md for the workloads, metrics
// and output format.
//
//   perfbench --workload genet_abr|serve_open|fleet_mix --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--source-id ID]
//
// stdout: one line per metric and per workload detail ("name value unit"),
// one {"report": ...} line (host, settings, the details, sample counts, layer
// partitions), and last the result object {"correct", "attempted", "failed",
// "metrics"}. Exit code 0 only when every correctness check passed and no
// operation failed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "host.hpp"
#include "netgym/parallel.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

using perfbench::jnum;
using perfbench::jobj;
using perfbench::jstr;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "genet_abr|serve_open|fleet_mix --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--source-id ID]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string source_id = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) usage("missing value for " + a);
      const std::string v = argv[++i];
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        if (!(opt.seconds > 0.0) || opt.seconds > 3600.0) {
          usage("--seconds must be in (0, 3600]");
        }
        have_seconds = true;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--work-dir") {
        opt.work_dir = v;
      } else if (a == "--source-id") {
        source_id = v;
      } else {
        usage("unknown argument " + a);
      }
    }
  } catch (const std::exception& e) {
    usage(std::string("bad argument: ") + e.what());
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (opt.work_dir.empty()) opt.work_dir = ".bench_build/perfbench_work";

  opt.threads = perfbench::online_cpus();
  netgym::set_num_threads(opt.threads);

  perfbench::Result result;
  const perfbench::CpuTicks ticks0 = perfbench::cpu_ticks();
  try {
    std::filesystem::create_directories(opt.work_dir);
    if (opt.workload == "genet_abr") {
      result = perfbench::run_genet_abr(opt);
    } else if (opt.workload == "serve_open") {
      result = perfbench::run_serve_open(opt);
    } else if (opt.workload == "fleet_mix") {
      result = perfbench::run_fleet_mix(opt);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  perfbench::spans::set_enabled(false);
  const perfbench::CpuTicks ticks1 = perfbench::cpu_ticks();
  if (ticks1.total > ticks0.total) {
    // Share of the machine's CPU time the hypervisor gave elsewhere during
    // the run: a high value explains a slow run without changing it.
    result.note("host_steal_share",
                jnum((ticks1.steal - ticks0.steal) / (ticks1.total - ticks0.total)));
  }
  if (!opt.trace) result.metric("peak_rss_mb", perfbench::peak_rss_mib(), "MiB");

  if (opt.trace) {
    const std::string path = opt.work_dir + "/spans_" + opt.workload + "_" +
                             std::to_string(opt.seed) + ".json";
    const auto spans = perfbench::spans::collect();
    if (perfbench::spans::write_chrome_trace(spans, path)) {
      result.note("spans_file", jstr(path));
      result.note("spans_recorded", jnum(static_cast<double>(spans.size())));
    }
  }

  const auto as_json = [](const std::vector<perfbench::Metric>& ms) {
    std::vector<std::pair<std::string, std::string>> kv;
    for (const auto& m : ms) {
      std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      kv.emplace_back(m.name,
                      jobj({{"value", jnum(m.value)}, {"unit", jstr(m.unit)}}));
    }
    return kv;
  };
  const auto metrics_json = as_json(result.metrics);
  auto report = result.report;
  report.insert(report.begin(), {"details", jobj(as_json(result.details))});
  report.insert(report.begin(),
                {"host", perfbench::host_report(opt, source_id)});
  std::printf("%s\n", jobj({{"report", jobj(report)}}).c_str());
  const bool ok = result.correct && result.failed == 0 && result.attempted > 0;
  std::printf("%s\n",
              jobj({{"correct", ok ? "true" : "false"},
                    {"attempted", std::to_string(result.attempted)},
                    {"failed", std::to_string(result.failed)},
                    {"metrics", jobj(metrics_json)}})
                  .c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}
