// fleet_mix: fleet::run_fleet over fleet::default_scenarios for abr, cc and
// lb with fixed-seed random-init policies (bench_fleet's session shares,
// trace_prob 0.5, flight capture off), one run_fleet call per scenario so
// each scenario is timed from outside. A "pass" replays every scenario once;
// passes repeat the same fleet until the measured window is used up.

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "netgym/parallel.hpp"
#include "netgym/rng.hpp"
#include "rl/policy.hpp"
#include "rl/trainer.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

const char* const kTasks[] = {"abr", "cc", "lb"};
constexpr double kShare[] = {0.35, 0.30, 0.35};  // bench_fleet's split
constexpr double kTraceProb = 0.5;
constexpr std::int64_t kPassSessions = 12'000;   // sessions per pass, all tasks
constexpr std::int64_t kCheckSessions = 1'200;   // reduced replay, all tasks
constexpr std::int64_t kWarmSessions = 300;      // per task, during setup
constexpr std::uint64_t kWarmSeed = 0x77a3;      // warm-up fleet, same every run

struct Fleet {
  std::vector<std::unique_ptr<rl::MlpPolicy>> policies;      // per task
  std::vector<std::vector<fleet::Scenario>> scenarios;       // per task
};

std::int64_t task_sessions(std::int64_t total, int t) {
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(static_cast<double>(total) * kShare[t]));
}

fleet::FleetOptions fleet_options(std::uint64_t seed) {
  fleet::FleetOptions o;
  o.seed = seed;
  o.worst_k = 0;
  o.out_dir = "";  // flight capture off
  return o;
}

std::vector<std::vector<fleet::Scenario>> scenarios_for(std::int64_t total) {
  std::vector<std::vector<fleet::Scenario>> out;
  for (int t = 0; t < 3; ++t) {
    out.push_back(spans::call("fleet", "fleet.default_scenarios", [&] {
      return fleet::default_scenarios(kTasks[t], task_sessions(total, t),
                                      kTraceProb);
    }));
  }
  return out;
}

/// Policies, the scenario lists, and a small fixed warm-up fleet per task so
/// trace corpora and pool threads are live before timing starts.
Fleet set_up() {
  Fleet f;
  const rl::TrainerOptions defaults;
  for (int t = 0; t < 3; ++t) {
    netgym::Rng init(1000 + static_cast<std::uint64_t>(t));
    f.policies.push_back(spans::call("rl", "rl.MlpPolicy", [&] {
      return std::make_unique<rl::MlpPolicy>(fleet::task_obs_size(kTasks[t]),
                                             fleet::task_action_count(kTasks[t]),
                                             defaults.hidden, init);
    }));
    f.policies.back()->set_greedy(true);
  }
  f.scenarios = scenarios_for(kPassSessions);
  for (int t = 0; t < 3; ++t) {
    spans::call("fleet", "fleet.run_fleet", [&] {
      return fleet::run_fleet(
          *f.policies[t],
          fleet::default_scenarios(kTasks[t], kWarmSessions, kTraceProb),
          fleet_options(kWarmSeed));
    });
  }
  return f;
}

/// Digest of every scenario of a fleet, one run_fleet call each.
std::vector<std::string> replay_digests(
    const Fleet& f, const std::vector<std::vector<fleet::Scenario>>& scen,
    std::uint64_t seed) {
  std::vector<std::string> out;
  for (int t = 0; t < 3; ++t) {
    for (const fleet::Scenario& sc : scen[t]) {
      const fleet::FleetResult r = spans::call("fleet", "fleet.run_fleet", [&] {
        return fleet::run_fleet(*f.policies[t], {sc}, fleet_options(seed));
      });
      out.push_back(spans::call("fleet", "fleet.canonical_digest",
                                [&] { return fleet::canonical_digest(r); }));
    }
  }
  return out;
}

}  // namespace

Result run_fleet_mix(const Options& opt) {
  Result res;
  spans::set_enabled(opt.trace);

  std::vector<double> setup_times;
  Fleet f;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = spans::now_ns();
    f = set_up();
    setup_times.push_back(static_cast<double>(spans::now_ns() - t0) * 1e-9);
  }

  // Scenario order of a pass: task-major, as default_scenarios lists them.
  std::vector<int> task_of;
  std::vector<std::string> names;
  for (int t = 0; t < 3; ++t) {
    for (const fleet::Scenario& sc : f.scenarios[t]) {
      task_of.push_back(t);
      names.push_back(sc.name);
    }
  }
  const std::size_t n_scen = names.size();

  std::vector<std::string> first_digest(n_scen);
  std::vector<double> pass_seconds;
  std::vector<double> pass_call_seconds;  // summed run_fleet seconds, per pass
  std::vector<double> pass_rates;         // sessions / those seconds, per pass
  std::vector<bool> pass_traced;
  std::vector<std::int64_t> scen_steps(n_scen, 0);  // traced passes only
  double call_seconds = 0.0;
  std::int64_t sessions = 0;
  std::int64_t mismatched = 0;
  const std::int64_t deadline =
      spans::now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  while (pass_seconds.empty() || spans::now_ns() < deadline) {
    const bool traced = opt.trace && pass_seconds.size() % 2 == 1;
    spans::set_enabled(traced);
    const std::int64_t p0 = spans::now_ns();
    double pass_call_s = 0.0;
    std::int64_t pass_sessions = 0;
    {
      spans::Scope pass("bench", "bench.pass");
      std::size_t k = 0;
      for (int t = 0; t < 3; ++t) {
        for (const fleet::Scenario& sc : f.scenarios[t]) {
          const std::int64_t c0 = spans::now_ns();
          const fleet::FleetResult r =
              spans::call("fleet", "fleet.run_fleet", [&] {
                return fleet::run_fleet(*f.policies[t], {sc},
                                        fleet_options(opt.seed));
              });
          pass_call_s += static_cast<double>(spans::now_ns() - c0) * 1e-9;
          pass_sessions += r.sessions;
          if (traced) scen_steps[k] += r.steps;
          const std::string digest = spans::call(
              "fleet", "fleet.canonical_digest",
              [&] { return fleet::canonical_digest(r); });
          // Every pass replays the same fleet: its digest must not move.
          if (pass_seconds.empty()) {
            first_digest[k] = digest;
          } else if (digest != first_digest[k]) {
            mismatched += r.sessions;
          }
          if (r.sessions != sc.sessions) mismatched += sc.sessions;
          ++k;
        }
      }
    }
    pass_seconds.push_back(static_cast<double>(spans::now_ns() - p0) * 1e-9);
    pass_call_seconds.push_back(pass_call_s);
    pass_rates.push_back(static_cast<double>(pass_sessions) / pass_call_s);
    pass_traced.push_back(traced);
    call_seconds += pass_call_s;
    sessions += pass_sessions;
  }
  spans::set_enabled(false);

  // Correctness: a reduced fleet replayed at the full pool and at one thread
  // must serialize to byte-identical canonical digests.
  const auto check_scen = scenarios_for(kCheckSessions);
  std::int64_t check_sessions = 0;
  for (const auto& list : check_scen) {
    for (const auto& sc : list) check_sessions += sc.sessions;
  }
  const std::vector<std::string> at_pool = replay_digests(f, check_scen, opt.seed);
  netgym::set_num_threads(1);
  const std::vector<std::string> at_one = replay_digests(f, check_scen, opt.seed);
  netgym::set_num_threads(opt.threads);
  const bool thread_invariant = at_pool == at_one;
  if (!thread_invariant) mismatched += check_sessions;

  res.attempted = sessions + 2 * check_sessions;
  res.failed = std::min(mismatched, res.attempted);
  res.correct = mismatched == 0;
  res.note("check", jobj({{"mismatched_sessions", jnum(static_cast<double>(mismatched))},
                          {"reduced_sessions", jnum(static_cast<double>(check_sessions))},
                          {"digest_pool_vs_1_thread_identical",
                           thread_invariant ? "true" : "false"}}));
  res.note("passes", jnum(static_cast<double>(pass_seconds.size())));
  res.note("sessions_per_pass", jnum(static_cast<double>(kPassSessions)));
  res.note("sessions", jnum(static_cast<double>(sessions)));
  res.note("pass_call_s", jnums(pass_call_seconds));
  res.note("sessions_per_s_over_all_passes",
           jnum(static_cast<double>(sessions) / call_seconds));
  res.note("setup_reps_s", jnums(setup_times));

  if (!opt.trace) {
    // The operation is one pass: every scenario's run_fleet call, 12,000
    // sessions. Median over passes (every pass replays the same fleet), so a
    // short stall of the host moves one pass, not the result.
    res.metric("setup_s", median(setup_times), "s");
    res.metric("op_ms", median(pass_call_seconds) * 1e3, "ms");
    res.detail("fleet.sessions_per_s", median(pass_rates), "1/s");
    return res;
  }

  // Per-layer metrics from the traced passes' spans: the run_fleet spans of a
  // pass come in scenario order, so the k-th one of a pass is scenario k.
  const std::vector<spans::Span> all = spans::collect();
  const std::vector<spans::Span> in_pass = spans::children_of(all, "bench.pass");
  std::vector<double> scen_s(n_scen, 0.0);
  std::int64_t traced_passes = 0;
  {
    std::size_t k = 0;
    for (const double d : spans::durations(in_pass, "fleet.run_fleet")) {
      scen_s[k % n_scen] += d;
      ++k;
    }
    traced_passes = static_cast<std::int64_t>(k / std::max<std::size_t>(n_scen, 1));
  }
  for (std::size_t k = 0; k < n_scen; ++k) {
    res.detail("fleet.scenario_s." + names[k],
               traced_passes > 0 ? scen_s[k] / traced_passes : 0.0, "s");
  }
  double task_ms[3] = {0.0, 0.0, 0.0};  // run_fleet time per traced pass, by task
  for (int t = 0; t < 3; ++t) {
    double s = 0.0, steps = 0.0;
    for (std::size_t k = 0; k < n_scen; ++k) {
      if (task_of[k] == t) {
        s += scen_s[k];
        steps += static_cast<double>(scen_steps[k]);
      }
    }
    res.detail(std::string("fleet.steps_per_s.") + kTasks[t], s > 0 ? steps / s : 0.0,
               "1/s");
    task_ms[t] = traced_passes > 0 ? s * 1e3 / traced_passes : 0.0;
  }
  std::int64_t roots = 0;
  const Partition part = spans::partition_under(all, "bench.pass", &roots);
  res.detail("fleet.pass_unattributed_s", roots > 0 ? part.unattributed / roots : 0.0,
             "s");
  const std::vector<double> digests = spans::durations(in_pass, "fleet.canonical_digest");

  // The pass's partition onto the shared per-layer names, per pass.
  res.metric("op_traced_ms", roots > 0 ? part.total * 1e3 / roots : 0.0, "ms");
  res.metric("layer1_ms", task_ms[0], "ms");
  res.metric("layer2_ms", task_ms[1], "ms");
  res.metric("layer3_ms", task_ms[2], "ms");
  res.metric("layer4_ms",
             roots > 0 ? std::accumulate(digests.begin(), digests.end(), 0.0) * 1e3 / roots
                       : 0.0,
             "ms");
  res.metric("unattributed_ms", roots > 0 ? part.unattributed * 1e3 / roots : 0.0, "ms");
  double traced_s = 0.0, untraced_s = 0.0;
  int n_traced = 0, n_untraced = 0;
  for (std::size_t i = 0; i < pass_seconds.size(); ++i) {
    (pass_traced[i] ? traced_s : untraced_s) += pass_seconds[i];
    ++(pass_traced[i] ? n_traced : n_untraced);
  }
  res.metric("trace_overhead_frac",
             n_traced > 0 && n_untraced > 0
                 ? (traced_s / n_traced - untraced_s / n_untraced) /
                       (untraced_s / n_untraced)
                 : 0.0,
             "fraction");
  res.note("partition", partition_json(part, "bench.pass", roots));
  if (part.overcommitted) res.correct = false;
  return res;
}

}  // namespace perfbench
