#include "fleet/fleet.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "genet/adapter.hpp"
#include "netgym/config.hpp"
#include "netgym/flight.hpp"
#include "netgym/parallel.hpp"
#include "netgym/rng.hpp"
#include "netgym/tracing.hpp"
#include "nn/gemm.hpp"
#include "rl/lockstep.hpp"

namespace fleet {

namespace {

/// Sessions stepped together through one act_batch stream. Fixed (unlike
/// rl::lockstep_group_size, which adapts to the thread count) so that even
/// fast math mode -- where batched rounding depends on group size -- stays
/// deterministic across thread counts. 16 rows already saturates the batched
/// GEMM's advantage over scalar forwards.
constexpr int kGroupSize = 16;

/// Device profile with dimension names resolved to indices up front, so the
/// per-session hot path does no string lookups.
struct ResolvedDevice {
  double weight = 1.0;
  std::vector<std::pair<std::size_t, double>> scales;
};

struct ResolvedScenario {
  std::unique_ptr<genet::TaskAdapter> adapter;  ///< built once per scenario
  std::vector<ResolvedDevice> devices;
  std::vector<double> device_weights;
  std::vector<netgym::Trace> corpus;  ///< empty when no recorded traces
  std::vector<std::size_t> slo_metric;  ///< SLO index -> metric index
  int max_steps = netgym::kMaxEpisodeSteps;
};

/// Draw one session's environment. Every stochastic choice (device class,
/// config point, recorded-vs-synthetic, trace index, env-internal seeds)
/// comes from `rng`, the session's own forked stream.
std::unique_ptr<netgym::Env> build_session_env(const Scenario& sc,
                                               const ResolvedScenario& rs,
                                               netgym::Rng& rng) {
  const netgym::ConfigSpace& space = rs.adapter->space();
  netgym::Config point = space.sample(rng);
  if (!rs.devices.empty()) {
    const std::size_t di = rng.categorical(rs.device_weights);
    for (const auto& [dim, scale] : rs.devices[di].scales) {
      point.values[dim] *= scale;
    }
    point = space.clamp(point);
    for (std::size_t i = 0; i < space.dims(); ++i) {
      if (space.param(i).integer) {
        point.values[i] = std::round(point.values[i]);
      }
    }
  }
  const netgym::Trace* trace = nullptr;
  if (!rs.corpus.empty() && rng.uniform(0.0, 1.0) < sc.trace_prob) {
    trace = &rs.corpus[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(rs.corpus.size()) - 1))];
  }
  return rs.adapter->make_env(point, trace, rng);
}

bool slo_compliant(const SloSpec& spec, double value) {
  return spec.op == SloOp::kAtMost ? value <= spec.threshold
                                   : value >= spec.threshold;
}

ResolvedScenario resolve_and_validate(const rl::MlpPolicy& policy,
                                      const Scenario& sc) {
  const auto fail = [&](const std::string& why) {
    throw std::invalid_argument("fleet: scenario '" + sc.name + "': " + why);
  };
  if (sc.name.empty()) {
    throw std::invalid_argument("fleet: scenario with empty name");
  }
  if (sc.sessions <= 0) fail("sessions must be positive");
  if (sc.max_steps < 0) fail("max_steps must be >= 0");
  if (!(sc.trace_prob >= 0.0 && sc.trace_prob <= 1.0)) {
    fail("trace_prob must be in [0, 1]");
  }
  ResolvedScenario rs;
  rs.adapter = genet::make_adapter(sc.task, sc.space_id);
  if (policy.obs_size() != rs.adapter->obs_size() ||
      policy.action_count() != rs.adapter->action_count()) {
    fail("policy shape " + std::to_string(policy.obs_size()) + "x" +
         std::to_string(policy.action_count()) + " does not match task '" +
         sc.task + "'");
  }
  rs.max_steps = sc.max_steps > 0 ? sc.max_steps : netgym::kMaxEpisodeSteps;
  if (sc.use_traces && sc.trace_prob > 0.0) {
    if (traces::info(sc.trace_set).task != sc.task) {
      fail("trace set " + traces::info(sc.trace_set).name +
           " does not drive task '" + sc.task + "'");
    }
    rs.corpus = traces::make_corpus(sc.trace_set, /*test_split=*/true);
    if (rs.corpus.empty()) fail("empty trace corpus");
  }
  for (const DeviceProfile& dev : sc.devices) {
    if (!(dev.weight > 0.0)) fail("device '" + dev.name + "' needs weight > 0");
    ResolvedDevice rd;
    rd.weight = dev.weight;
    for (const auto& [dim, scale] : dev.dim_scales) {
      if (!(scale > 0.0)) {
        fail("device '" + dev.name + "' scale for '" + dim +
             "' must be > 0");
      }
      rd.scales.emplace_back(rs.adapter->space().index_of(dim),
                             scale);  // throws on typo
    }
    rs.devices.push_back(std::move(rd));
    rs.device_weights.push_back(dev.weight);
  }
  const auto& names = rs.adapter->metric_names();
  for (const SloSpec& slo : sc.slos) {
    const auto it = std::find(names.begin(), names.end(), slo.metric);
    if (it == names.end()) fail("SLO metric '" + slo.metric + "' unknown");
    if (!std::isfinite(slo.threshold)) fail("SLO threshold must be finite");
    if (!(slo.target_fraction >= 0.0 && slo.target_fraction <= 1.0)) {
      fail("SLO target_fraction must be in [0, 1]");
    }
    rs.slo_metric.push_back(
        static_cast<std::size_t>(it - names.begin()));
  }
  return rs;
}

ScenarioResult run_scenario(const rl::MlpPolicy& policy, const Scenario& sc,
                            const ResolvedScenario& rs,
                            const FleetOptions& opts, netgym::Rng& scen_rng) {
  using netgym::telemetry::Histogram;
  const auto& names = rs.adapter->metric_names();
  const std::size_t nm = names.size();
  const std::int64_t sessions = sc.sessions;
  const int n_shards = static_cast<int>(std::min<std::int64_t>(
      std::max(opts.shards, 1), sessions));
  const std::int64_t per_shard = (sessions + n_shards - 1) / n_shards;

  // Shard streams forked serially: the partition and every shard's stream
  // depend only on (seed, scenario order, shard count), never on threads.
  std::vector<netgym::Rng> shard_rngs;
  shard_rngs.reserve(static_cast<std::size_t>(n_shards));
  for (int s = 0; s < n_shards; ++s) shard_rngs.push_back(scen_rng.fork());

  struct ShardStats {
    std::vector<std::unique_ptr<Histogram>> hist;
    std::vector<std::int64_t> slo_ok;
    std::int64_t steps = 0;
  };
  std::vector<ShardStats> shard_stats(static_cast<std::size_t>(n_shards));
  for (auto& st : shard_stats) {
    st.hist.reserve(nm);
    for (std::size_t m = 0; m < nm; ++m) {
      st.hist.push_back(std::make_unique<Histogram>());
    }
    st.slo_ok.assign(sc.slos.size(), 0);
  }

  netgym::tracing::TraceSpan span("fleet.scenario", "fleet", nullptr);
  netgym::parallel_for_each(
      static_cast<std::size_t>(n_shards), [&](std::size_t s) {
        ShardStats& st = shard_stats[s];
        netgym::Rng& srng = shard_rngs[s];
        const std::int64_t begin = static_cast<std::int64_t>(s) * per_shard;
        const std::int64_t end = std::min(sessions, begin + per_shard);
        std::vector<std::unique_ptr<netgym::Env>> envs;
        std::vector<netgym::Rng> act_rngs;
        std::vector<netgym::Env*> env_ptrs;
        std::vector<netgym::Rng*> rng_ptrs;
        for (std::int64_t g = begin; g < end; g += kGroupSize) {
          const int k =
              static_cast<int>(std::min<std::int64_t>(kGroupSize, end - g));
          envs.clear();
          act_rngs.clear();
          env_ptrs.clear();
          rng_ptrs.clear();
          envs.reserve(static_cast<std::size_t>(k));
          act_rngs.reserve(static_cast<std::size_t>(k));
          for (int j = 0; j < k; ++j) {
            netgym::Rng env_rng = srng.fork();
            act_rngs.push_back(srng.fork());
            envs.push_back(build_session_env(sc, rs, env_rng));
          }
          for (int j = 0; j < k; ++j) {
            env_ptrs.push_back(envs[static_cast<std::size_t>(j)].get());
            rng_ptrs.push_back(&act_rngs[static_cast<std::size_t>(j)]);
          }
          const auto stats = rl::run_episodes_lockstep(policy, env_ptrs,
                                                       rng_ptrs, rs.max_steps);
          for (int j = 0; j < k; ++j) {
            double vals[3];
            rs.adapter->episode_metrics(*envs[static_cast<std::size_t>(j)],
                                        stats[static_cast<std::size_t>(j)],
                                        vals);
            for (std::size_t m = 0; m < nm; ++m) st.hist[m]->record(vals[m]);
            for (std::size_t i = 0; i < sc.slos.size(); ++i) {
              if (slo_compliant(sc.slos[i], vals[rs.slo_metric[i]])) {
                ++st.slo_ok[i];
              }
            }
            st.steps += stats[static_cast<std::size_t>(j)].steps;
          }
        }
      });

  // Serial merge in shard index order: float sums accumulate in the same
  // order at any thread count (see Histogram::merge).
  ScenarioResult r;
  r.name = sc.name;
  r.task = sc.task;
  r.space_id = sc.space_id;
  r.sessions = sessions;
  r.trace_set = rs.corpus.empty() ? "" : traces::info(sc.trace_set).name;
  r.trace_prob = rs.corpus.empty() ? 0.0 : sc.trace_prob;
  std::vector<std::unique_ptr<Histogram>> merged;
  merged.reserve(nm);
  for (std::size_t m = 0; m < nm; ++m) {
    merged.push_back(std::make_unique<Histogram>());
  }
  std::vector<std::int64_t> slo_ok(sc.slos.size(), 0);
  for (const ShardStats& st : shard_stats) {
    for (std::size_t m = 0; m < nm; ++m) merged[m]->merge(*st.hist[m]);
    for (std::size_t i = 0; i < slo_ok.size(); ++i) slo_ok[i] += st.slo_ok[i];
    r.steps += st.steps;
  }
  for (std::size_t m = 0; m < nm; ++m) {
    r.metrics.push_back(MetricSummary{names[m], merged[m]->snapshot()});
  }
  for (std::size_t i = 0; i < sc.slos.size(); ++i) {
    SloResult sr;
    sr.spec = sc.slos[i];
    sr.compliant = slo_ok[i];
    sr.fraction = static_cast<double>(slo_ok[i]) /
                  static_cast<double>(sessions);
    sr.pass = sr.fraction >= sr.spec.target_fraction - 1e-12;
    r.slos.push_back(std::move(sr));
  }
  r.duration_s = span.end();
  return r;
}

}  // namespace

const char* slo_op_name(SloOp op) {
  return op == SloOp::kAtMost ? "<=" : ">=";
}

const std::vector<std::string>& metric_names(const std::string& task) {
  return genet::make_adapter(task, 1)->metric_names();
}

int task_obs_size(const std::string& task) {
  return genet::make_adapter(task, 1)->obs_size();
}

int task_action_count(const std::string& task) {
  return genet::make_adapter(task, 1)->action_count();
}

std::vector<Scenario> default_scenarios(const std::string& task,
                                        std::int64_t sessions,
                                        double trace_prob) {
  if (sessions <= 0) {
    throw std::invalid_argument("fleet: sessions must be positive");
  }
  metric_names(task);  // validates the task name
  const auto split = [&](double frac) {
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(
               static_cast<double>(sessions) * frac)));
  };
  std::vector<Scenario> out;
  if (task == "abr") {
    const std::vector<DeviceProfile> devices = {
        {"phone", 0.50, {{"max_bw_mbps", 0.6}, {"max_buffer_s", 0.5},
                         {"min_rtt_ms", 1.5}}},
        {"desktop", 0.35, {}},
        {"tv", 0.15, {{"max_bw_mbps", 1.5}, {"max_buffer_s", 1.5},
                      {"min_rtt_ms", 0.8}}},
    };
    const std::vector<SloSpec> slos = {
        {"rebuffer_s", SloOp::kAtMost, 0.25, 0.90},
        {"episode_reward", SloOp::kAtLeast, -5.0, 0.95},
    };
    Scenario synth{"abr_rl1_synth", "abr", 1, split(0.30), 256,
                   false, traces::TraceSet::kFcc, 0.0, devices, slos};
    Scenario fcc{"abr_rl2_fcc", "abr", 2, split(0.35), 256,
                 true, traces::TraceSet::kFcc, trace_prob, devices, slos};
    Scenario norway{"abr_rl2_norway", "abr", 2, split(0.35), 256,
                    true, traces::TraceSet::kNorway, trace_prob, devices,
                    slos};
    out = {synth, fcc, norway};
  } else if (task == "cc") {
    const std::vector<DeviceProfile> devices = {
        {"mobile", 0.5, {{"max_bw_mbps", 0.6}, {"min_rtt_ms", 1.5}}},
        {"wired", 0.5, {{"max_bw_mbps", 1.25}, {"min_rtt_ms", 0.75}}},
    };
    const std::vector<SloSpec> slos = {
        {"queue_delay_s", SloOp::kAtMost, 0.10, 0.90},
        {"episode_reward", SloOp::kAtLeast, -300.0, 0.95},
    };
    Scenario synth{"cc_rl1_synth", "cc", 1, split(0.34), 128,
                   false, traces::TraceSet::kCellular, 0.0, devices, slos};
    Scenario cell{"cc_rl2_cellular", "cc", 2, split(0.33), 128,
                  true, traces::TraceSet::kCellular, trace_prob, devices,
                  slos};
    Scenario eth{"cc_rl2_ethernet", "cc", 2, split(0.33), 128,
                 true, traces::TraceSet::kEthernet, trace_prob, devices, slos};
    out = {synth, cell, eth};
  } else {
    const std::vector<DeviceProfile> devices = {
        {"small_cluster", 0.5, {{"service_rate", 0.7}}},
        {"large_cluster", 0.5, {{"service_rate", 1.4}}},
    };
    const std::vector<SloSpec> slos = {
        {"job_slowdown", SloOp::kAtMost, 50.0, 0.90},
        {"job_delay_s", SloOp::kAtMost, 10.0, 0.95},
    };
    Scenario rl1{"lb_rl1", "lb", 1, split(0.50), 256,
                 false, traces::TraceSet::kFcc, 0.0, devices, slos};
    Scenario rl2{"lb_rl2", "lb", 2, split(0.50), 256,
                 false, traces::TraceSet::kFcc, 0.0, devices, slos};
    out = {rl1, rl2};
  }
  return out;
}

FleetResult run_fleet(const rl::MlpPolicy& policy,
                      const std::vector<Scenario>& scenarios,
                      const FleetOptions& opts) {
  if (scenarios.empty()) {
    throw std::invalid_argument("fleet: no scenarios");
  }
  if (opts.shards < 1) {
    throw std::invalid_argument("fleet: shards must be >= 1");
  }
  if (opts.worst_k < 0) {
    throw std::invalid_argument("fleet: worst_k must be >= 0");
  }
  std::vector<ResolvedScenario> resolved;
  resolved.reserve(scenarios.size());
  for (const Scenario& sc : scenarios) {
    resolved.push_back(resolve_and_validate(policy, sc));
  }
  // Fleet evaluation is deployment evaluation: every shard shares this one
  // greedy copy, whatever the caller's flag.
  rl::MlpPolicy greedy = policy;
  greedy.set_greedy(true);
  const bool capture = !opts.out_dir.empty() && opts.worst_k > 0;
  if (capture) std::filesystem::create_directories(opts.out_dir);

  FleetResult out;
  out.seed = opts.seed;
  out.shards = opts.shards;
  out.worst_k = capture ? opts.worst_k : 0;
  out.threads = netgym::num_threads();
  netgym::Rng master(opts.seed);
  auto& recorder = netgym::flight::Recorder::instance();
  netgym::tracing::TraceSpan span("fleet.run", "fleet", nullptr);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    // Forked before any flight-recorder side effects: the scenario stream
    // depends only on (seed, scenario index).
    netgym::Rng scen_rng = master.fork();
    if (capture) {
      recorder.reset();
      recorder.enable(opts.worst_k);
    }
    ScenarioResult r =
        run_scenario(greedy, scenarios[i], resolved[i], opts, scen_rng);
    if (capture) {
      r.flight_path = opts.out_dir + "/worst_" + scenarios[i].name + ".jsonl";
      recorder.write_jsonl(r.flight_path);
      r.flight_episodes =
          static_cast<std::int64_t>(recorder.episodes_seen());
      recorder.disable();
      recorder.reset();
    }
    out.sessions += r.sessions;
    out.steps += r.steps;
    netgym::telemetry::log_event(
        "fleet_scenario", static_cast<std::int64_t>(i),
        {{"name", r.name},
         {"sessions", r.sessions},
         {"steps", r.steps},
         {"duration_s", r.duration_s}});
    out.scenarios.push_back(std::move(r));
  }
  out.duration_s = span.end();
  netgym::telemetry::Registry::instance().counter("fleet.sessions")
      .add(out.sessions);
  netgym::telemetry::Registry::instance().counter("fleet.steps")
      .add(out.steps);
  return out;
}

std::string canonical_digest(const FleetResult& result) {
  std::string out = "fleet-digest v1\n";
  char buf[512];
  const auto g = [&](double v) {
    char num[40];
    std::snprintf(num, sizeof(num), "%.17g", v);
    return std::string(num);
  };
  std::snprintf(buf, sizeof(buf),
                "seed=%" PRIu64 " shards=%d worst_k=%d sessions=%" PRId64
                " steps=%" PRId64 " scenarios=%zu\n",
                result.seed, result.shards, result.worst_k, result.sessions,
                result.steps, result.scenarios.size());
  out += buf;
  for (const ScenarioResult& r : result.scenarios) {
    std::snprintf(buf, sizeof(buf),
                  "scenario %s task=%s space=%d sessions=%" PRId64
                  " steps=%" PRId64 " trace_set=%s trace_prob=%s"
                  " flight_episodes=%" PRId64 "\n",
                  r.name.c_str(), r.task.c_str(), r.space_id, r.sessions,
                  r.steps, r.trace_set.empty() ? "-" : r.trace_set.c_str(),
                  g(r.trace_prob).c_str(), r.flight_episodes);
    out += buf;
    for (const MetricSummary& m : r.metrics) {
      const auto& s = m.stats;
      std::snprintf(buf, sizeof(buf),
                    "metric %s count=%" PRId64
                    " sum=%s min=%s max=%s p50=%s p90=%s p99=%s p999=%s"
                    " exact=%d dropped=%" PRId64 " saturated=%" PRId64 "\n",
                    m.name.c_str(), s.count, g(s.sum).c_str(),
                    g(s.min).c_str(), g(s.max).c_str(), g(s.p50).c_str(),
                    g(s.p90).c_str(), g(s.p99).c_str(), g(s.p999).c_str(),
                    s.exact ? 1 : 0, s.dropped, s.saturated);
      out += buf;
    }
    for (const SloResult& s : r.slos) {
      std::snprintf(buf, sizeof(buf),
                    "slo %s op=%s threshold=%s target=%s compliant=%" PRId64
                    " fraction=%s pass=%d\n",
                    s.spec.metric.c_str(), slo_op_name(s.spec.op),
                    g(s.spec.threshold).c_str(),
                    g(s.spec.target_fraction).c_str(), s.compliant,
                    g(s.fraction).c_str(), s.pass ? 1 : 0);
      out += buf;
    }
  }
  return out;
}

std::string write_regression_fixture(const std::string& dir) {
  // Fixed-seed random-init policy: the fixture pins the fleet plumbing
  // (sampling, lockstep replay, flight capture), not a trained model.
  netgym::Rng prng(4242);
  rl::MlpPolicy policy(task_obs_size("abr"), task_action_count("abr"),
                       {16, 16}, prng);
  Scenario sc;
  sc.name = "fixture_abr";
  sc.task = "abr";
  sc.space_id = 1;
  sc.sessions = 96;
  sc.max_steps = 64;
  sc.use_traces = true;
  sc.trace_set = traces::TraceSet::kFcc;
  sc.trace_prob = 0.5;
  sc.devices = default_scenarios("abr", 96, 0.5).front().devices;
  sc.slos = {{"rebuffer_s", SloOp::kAtMost, 0.25, 0.90}};
  FleetOptions opts;
  opts.seed = 7;
  opts.shards = 8;
  opts.worst_k = 4;
  opts.out_dir = dir;
  run_fleet(policy, {sc}, opts);
  const std::string digest_path = dir + "/fleet_digest_mix_v1.txt";
  std::ofstream digest(digest_path, std::ios::binary);
  if (!(digest << mixed_task_digest())) {
    throw std::runtime_error("fleet: cannot write " + digest_path);
  }
  return (std::filesystem::path(dir) / "worst_fixture_abr.jsonl").string();
}

std::string mixed_task_digest() {
  // Strict math: the digest pins batched forwards bit-for-bit, which only
  // the strict kernels guarantee (see nn::MathMode).
  const nn::MathMode saved = nn::math_mode();
  nn::set_math_mode(nn::MathMode::kStrict);
  std::string out;
  for (const char* task : {"abr", "cc", "lb"}) {
    netgym::Rng prng(4242);
    const rl::MlpPolicy policy(task_obs_size(task), task_action_count(task),
                               {16, 16}, prng);
    FleetOptions opts;
    opts.seed = 7;
    opts.shards = 8;
    out += canonical_digest(
        run_fleet(policy, default_scenarios(task, 300, 0.5), opts));
  }
  nn::set_math_mode(saved);
  return out;
}

}  // namespace fleet
