#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Settings every workload receives from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;        ///< length of the measured window
  bool trace = false;           ///< record the benchmark's own spans
  int threads = 1;              ///< pool / generator thread budget (nproc)
  std::string work_dir;         ///< scratch directory inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): operation counts, the metrics of
/// this mode, the workload's own named figures, and report fields that are
/// printed beside them (raw JSON values keyed by name).
///
/// `metrics` are the names BENCHMARK.json lists, which every workload reports
/// alike: end to end when untraced, per layer when traced. Each workload
/// maps its own figures onto them (README.md, "Metrics"). `details` keep
/// those figures under their own names (genet.round_s, serve.p50_ms.low,
/// fleet.scenario_s.<scenario>, ...); they go to the report, not the result.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  std::vector<std::pair<std::string, std::string>> report;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, value, unit});
  }
  void note(const std::string& key, std::string raw_json) {
    report.emplace_back(key, std::move(raw_json));
  }
};

/// Minimal JSON value spellings for report fields.
std::string jnum(double v);
std::string jstr(const std::string& s);
std::string jobj(const std::vector<std::pair<std::string, std::string>>& kv);
std::string jarr(const std::vector<std::string>& items);
std::string jnums(const std::vector<double>& values);

/// A layer partition under `roots` spans named `root`, for the report.
std::string partition_json(const Partition& part, const std::string& root,
                           std::int64_t roots);

/// Number of setup repetitions; setup_s is their median.
inline constexpr int kSetupReps = 9;

Result run_genet_abr(const Options& opt);
Result run_serve_open(const Options& opt);
Result run_fleet_mix(const Options& opt);

}  // namespace perfbench
