#include "genet/adapter.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>

#include "abr/baselines.hpp"
#include "netgym/parallel.hpp"
#include "netgym/tracing.hpp"
#include "rl/lockstep.hpp"
#include "abr/env.hpp"
#include "abr/optimal.hpp"
#include "cc/baselines.hpp"
#include "cc/env.hpp"
#include "cc/packet_sim.hpp"
#include "lb/baselines.hpp"
#include "lb/env.hpp"

namespace genet {

const netgym::Trace& matching_trace(const std::vector<netgym::Trace>& corpus,
                                    double max_bw_mbps, netgym::Rng& rng) {
  if (corpus.empty()) {
    // Without this guard the closest-trace fallback below would read
    // corpus[0] of an empty vector.
    throw std::invalid_argument("matching_trace: empty trace corpus");
  }
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const double mean = corpus[i].mean_bandwidth();
    if (mean <= max_bw_mbps && mean >= 0.02 * max_bw_mbps) {
      candidates.push_back(i);
    }
  }
  if (!candidates.empty()) {
    return corpus[candidates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(candidates.size()) - 1))]];
  }
  std::size_t best = 0;
  double best_dist = 1e300;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const double d = std::abs(corpus[i].mean_bandwidth() - max_bw_mbps);
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return corpus[best];
}

namespace {

/// One RNG stream per work item, forked serially from `rng` in index order.
std::vector<netgym::Rng> fork_streams(int n, netgym::Rng& rng) {
  std::vector<netgym::Rng> streams;
  streams.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) streams.push_back(rng.fork());
  return streams;
}

/// Per-item engine of the evaluation helpers: pre-fork the item streams,
/// evaluate every item — in parallel when `parallel_ok` — and return
/// per-item values in index order. Because each item consumes only its own
/// stream, the serial and parallel paths produce bit-identical results.
std::vector<double> forked_map(
    int n, netgym::Rng& rng, bool parallel_ok,
    const std::function<double(std::size_t, netgym::Rng&)>& item) {
  std::vector<netgym::Rng> streams = fork_streams(n, rng);
  std::vector<double> values(static_cast<std::size_t>(n));
  const auto traced_item = [&](std::size_t i) {
    netgym::tracing::TraceSpan span("eval", "genet",
                                    static_cast<std::int64_t>(i));
    values[i] = item(i, streams[i]);
  };
  if (parallel_ok) {
    netgym::parallel_for_each(values.size(), traced_item);
  } else {
    for (std::size_t i = 0; i < values.size(); ++i) traced_item(i);
  }
  return values;
}

double mean_of(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

/// Per-item view of a shared policy: workers use their own clone; policies
/// that cannot be cloned fall back to the shared instance, which is safe
/// because `forked_map` then runs serially.
netgym::Policy& local_policy(const std::unique_ptr<netgym::Policy>& local,
                             netgym::Policy& shared) {
  return local ? *local : shared;
}

bool cloneable(const netgym::Policy& policy) {
  return policy.clone() != nullptr;
}

/// One evaluation item, the only definition each helper gives of its
/// per-item work: the environment the evaluated policy rolls through, plus
/// an optional `finish` hook that consumes that episode's mean reward --
/// running any baseline/oracle episode on the item's stream -- and returns
/// the item's value. Everything `finish` needs (reference env, baseline
/// policy) is captured inside it; a null `finish` means the item's value is
/// the policy's mean reward itself.
struct EvalPlan {
  std::unique_ptr<netgym::Env> rl_env;
  std::function<double(double rl_mean_reward, netgym::Rng& item_rng)> finish;
};

double finish_plan(const EvalPlan& plan, double rl_mean_reward,
                   netgym::Rng& item_rng) {
  return plan.finish ? plan.finish(rl_mean_reward, item_rng) : rl_mean_reward;
}

/// Evaluate one planned item on its own: the policy's episode, then
/// `finish`, both on the item's stream.
double run_plan(const EvalPlan& plan, netgym::Policy& policy,
                netgym::Rng& item_rng) {
  return finish_plan(
      plan, netgym::run_episode(*plan.rl_env, policy, item_rng).mean_reward,
      item_rng);
}

/// Evaluation engine of the helpers below. Every item draws, on its own
/// stream pre-forked serially from `rng`, first its plan-time setup, then
/// the policy's episode, then `finish`. Non-MLP policies run each item as
/// `run_plan` on a per-item clone through `forked_map`. MLP policies group
/// items into jobs (one "eval" span per job, all sharing the policy) whose
/// episodes advance together through batched forward passes, after which
/// each item's `finish` runs in item order; in strict math mode each row of
/// a batched forward is bit-identical to a scalar one, so the values match
/// `run_plan`'s at any group size or thread count.
std::vector<double> batched_map(
    int n, netgym::Rng& rng, netgym::Policy& policy,
    const std::function<EvalPlan(std::size_t, netgym::Rng&)>& plan) {
  const auto* mlp = dynamic_cast<const rl::MlpPolicy*>(&policy);
  if (mlp == nullptr) {
    return forked_map(n, rng, cloneable(policy),
                      [&](std::size_t i, netgym::Rng& item_rng) {
                        const std::unique_ptr<netgym::Policy> local =
                            policy.clone();
                        return run_plan(plan(i, item_rng),
                                        local_policy(local, policy), item_rng);
                      });
  }
  std::vector<netgym::Rng> streams = fork_streams(n, rng);
  const std::size_t count = static_cast<std::size_t>(n);
  std::vector<double> values(count);
  const std::size_t group = rl::lockstep_group_size(count);
  const std::size_t jobs = (count + group - 1) / group;
  netgym::parallel_for_each(jobs, [&](std::size_t g) {
    const std::size_t begin = g * group;
    const std::size_t end = std::min(begin + group, count);
    netgym::tracing::TraceSpan span("eval", "genet",
                                    static_cast<std::int64_t>(begin));
    std::vector<EvalPlan> plans;
    std::vector<netgym::Env*> envs;
    std::vector<netgym::Rng*> rngs;
    plans.reserve(end - begin);
    envs.reserve(end - begin);
    rngs.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      plans.push_back(plan(i, streams[i]));
      envs.push_back(plans.back().rl_env.get());
      rngs.push_back(&streams[i]);
    }
    const std::vector<netgym::EpisodeStats> stats = rl::run_episodes_lockstep(
        *mlp, envs, rngs, netgym::kMaxEpisodeSteps);
    for (std::size_t j = 0; j < plans.size(); ++j) {
      values[begin + j] =
          finish_plan(plans[j], stats[j].mean_reward, streams[begin + j]);
    }
  });
  return values;
}

/// Plan of one gap item, kind "baseline" (reward(baseline) - reward(policy))
/// or "optimum" (optimal - reward(policy)). The policy and the reference
/// each get a fresh copy of the same environment, built from one env stream
/// forked off the item's stream; `finish` runs the reference on the item's
/// stream after the policy's episode.
EvalPlan gap_plan(const TaskAdapter& task, const std::string& kind,
                  const std::string& baseline, const netgym::Config& config,
                  netgym::Rng& item_rng) {
  if (kind != "baseline" && kind != "optimum") {
    throw std::invalid_argument("eval_gap_item: unknown kind '" + kind + "'");
  }
  netgym::Rng env_rng = item_rng.fork();
  netgym::Rng env_rng2 = env_rng;
  EvalPlan p;
  p.rl_env = task.make_env(config, env_rng);
  std::shared_ptr<netgym::Env> env_ref = task.make_env(config, env_rng2);
  if (kind == "optimum") {
    p.finish = [&task, env_ref](double r_rl, netgym::Rng& rng) {
      return task.optimal_mean_reward(*env_ref, rng) - r_rl;
    };
    return p;
  }
  std::shared_ptr<netgym::Policy> rule = task.make_baseline(baseline, *env_ref);
  p.finish = [env_ref, rule](double r_rl, netgym::Rng& rng) {
    return netgym::run_episode(*env_ref, *rule, rng).mean_reward - r_rl;
  };
  return p;
}

GapEvalHook g_gap_eval_hook;

/// Route a gap evaluation through the distributed hook when the whole
/// computation is reconstructible worker-side; nullopt keeps the in-process
/// path. The item streams are forked here -- serially, in index order, the
/// same pre-fork the in-process paths do -- BEFORE anything ships, so the
/// hook's values depend only on the stream states and the request content:
/// worker count, assignment order, and worker death cannot change them.
std::optional<std::vector<double>> dist_gap_eval(
    const TaskAdapter& task, netgym::Policy& policy, const std::string& kind,
    const std::string& baseline, const netgym::Config& config, int n,
    netgym::Rng& rng) {
  if (!g_gap_eval_hook) return std::nullopt;
  const auto* mlp = dynamic_cast<const rl::MlpPolicy*>(&policy);
  if (mlp == nullptr) return std::nullopt;
  GapEvalRequest req;
  req.adapter_spec = task.dist_spec();
  if (req.adapter_spec.empty()) return std::nullopt;
  req.kind = kind;
  req.baseline = baseline;
  req.config = config.values;
  req.policy_params = mlp->snapshot();
  req.greedy = mlp->greedy();
  for (const netgym::Rng& stream : fork_streams(n, rng)) {
    req.stream_states.push_back(stream.state());
  }
  std::vector<double> values = g_gap_eval_hook(req);
  if (values.size() != static_cast<std::size_t>(n)) {
    throw std::runtime_error("gap eval hook returned " +
                             std::to_string(values.size()) + " values for " +
                             std::to_string(n) + " items");
  }
  return values;
}

/// Shared body of gap_to_baseline / gap_to_optimum: the distributed hook
/// when it applies, else every item's gap_plan in process.
double mean_gap(const TaskAdapter& task, netgym::Policy& rl_policy,
                const std::string& kind, const std::string& baseline,
                const netgym::Config& config, int n, netgym::Rng& rng) {
  if (const auto distributed =
          dist_gap_eval(task, rl_policy, kind, baseline, config, n, rng)) {
    return mean_of(*distributed);
  }
  return mean_of(batched_map(n, rng, rl_policy,
                             [&](std::size_t, netgym::Rng& item_rng) {
                               return gap_plan(task, kind, baseline, config,
                                               item_rng);
                             }));
}

}  // namespace

void set_gap_eval_hook(GapEvalHook hook) {
  g_gap_eval_hook = std::move(hook);
}

bool gap_eval_hook_installed() {
  return static_cast<bool>(g_gap_eval_hook);
}

double eval_gap_item(const TaskAdapter& task, netgym::Policy& policy,
                     const std::string& kind, const std::string& baseline,
                     const netgym::Config& config, netgym::Rng& item_rng) {
  return run_plan(gap_plan(task, kind, baseline, config, item_rng), policy,
                  item_rng);
}

std::unique_ptr<TaskAdapter> make_adapter(const std::string& task,
                                          int space_id,
                                          TraceMixOptions traces) {
  if (task == "abr") {
    return std::make_unique<AbrAdapter>(space_id, std::move(traces));
  }
  if (task == "cc") {
    return std::make_unique<CcAdapter>(space_id, std::move(traces));
  }
  if (task == "lb") return std::make_unique<LbAdapter>(space_id);
  throw std::invalid_argument("make_adapter: unknown task '" + task +
                              "' (want abr|cc|lb)");
}

std::unique_ptr<TaskAdapter> make_adapter_from_spec(const std::string& spec) {
  const std::size_t slash = std::min(spec.find('/'), spec.size());
  const std::string id = spec.substr(std::min(slash + 1, spec.size()));
  if (id.empty() || id.size() > 2 ||
      id.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument("make_adapter_from_spec: unrecognized spec '" +
                                spec + "'");
  }
  return make_adapter(spec.substr(0, slash), std::stoi(id));
}

std::unique_ptr<rl::MlpPolicy> make_policy(const TaskAdapter& task,
                                           const std::vector<double>& params) {
  netgym::Rng init_rng(0);
  auto policy = std::make_unique<rl::MlpPolicy>(
      task.obs_size(), task.action_count(), rl::TrainerOptions{}.hidden,
      init_rng);
  policy->restore(params);
  policy->set_greedy(true);
  return policy;
}

std::unique_ptr<netgym::Env> TaskAdapter::make_env(
    const netgym::Config& config, netgym::Rng& rng) const {
  const netgym::Trace* trace = nullptr;
  if (!traces_.corpus.empty() && rng.bernoulli(traces_.trace_prob)) {
    trace = &matching_trace(
        traces_.corpus, config.values.at(space().index_of("max_bw_mbps")), rng);
  }
  return make_env(config, trace, rng);
}

std::unique_ptr<netgym::Env> TaskAdapter::make_env_from_trace(
    const netgym::Trace&, netgym::Rng&) const {
  throw std::logic_error(name() + ": task has no trace-driven environments");
}

double TaskAdapter::config_non_smoothness(const netgym::Config&,
                                          netgym::Rng&) const {
  return 0.0;
}

rl::EnvFactory TaskAdapter::factory_for(
    const netgym::ConfigDistribution& dist) const {
  return [this, &dist](netgym::Rng& rng) {
    return make_env(dist.sample(rng), rng);
  };
}

rl::EnvFactory TaskAdapter::factory_for(const netgym::Config& config) const {
  return [this, config](netgym::Rng& rng) { return make_env(config, rng); };
}

double test_on_config(const TaskAdapter& task, netgym::Policy& policy,
                      const netgym::Config& config, int n, netgym::Rng& rng) {
  if (n <= 0) throw std::invalid_argument("test_on_config: n must be > 0");
  return mean_of(batched_map(
      n, rng, policy, [&](std::size_t, netgym::Rng& item_rng) {
        return EvalPlan{task.make_env(config, item_rng), nullptr};
      }));
}

double test_on_distribution(const TaskAdapter& task, netgym::Policy& policy,
                            const netgym::ConfigDistribution& dist, int n,
                            netgym::Rng& rng) {
  if (n <= 0) {
    throw std::invalid_argument("test_on_distribution: n must be > 0");
  }
  return mean_of(batched_map(
      n, rng, policy, [&](std::size_t, netgym::Rng& item_rng) {
        return EvalPlan{task.make_env(dist.sample(item_rng), item_rng),
                        nullptr};
      }));
}

std::vector<double> test_per_trace(const TaskAdapter& task,
                                   netgym::Policy& policy,
                                   const std::vector<netgym::Trace>& corpus,
                                   netgym::Rng& rng) {
  return batched_map(
      static_cast<int>(corpus.size()), rng, policy,
      [&](std::size_t i, netgym::Rng& item_rng) {
        return EvalPlan{task.make_env_from_trace(corpus[i], item_rng),
                        nullptr};
      });
}

double gap_to_baseline(const TaskAdapter& task, netgym::Policy& rl_policy,
                       const std::string& baseline_name,
                       const netgym::Config& config, int n,
                       netgym::Rng& rng) {
  if (n <= 0) throw std::invalid_argument("gap_to_baseline: n must be > 0");
  return mean_gap(task, rl_policy, "baseline", baseline_name, config, n, rng);
}

double gap_to_optimum(const TaskAdapter& task, netgym::Policy& rl_policy,
                      const netgym::Config& config, int n, netgym::Rng& rng) {
  if (n <= 0) throw std::invalid_argument("gap_to_optimum: n must be > 0");
  return mean_gap(task, rl_policy, "optimum", "", config, n, rng);
}

double gap_between(const TaskAdapter& task, netgym::Policy& policy,
                   netgym::Policy& reference, const netgym::Config& config,
                   int n, netgym::Rng& rng) {
  if (n <= 0) throw std::invalid_argument("gap_between: n must be > 0");
  // The reference's episode runs before the policy's, both on the item's
  // stream (EvalPin.GapBetweenMatchesPinnedBits fixes this order). That is
  // the reverse of an EvalPlan, whose policy episode comes first, so this
  // helper maps items itself (and `reference` is often not an MLP anyway).
  const bool parallel_ok = cloneable(policy) && cloneable(reference);
  return mean_of(forked_map(
      n, rng, parallel_ok, [&](std::size_t, netgym::Rng& item_rng) {
        const std::unique_ptr<netgym::Policy> local = policy.clone();
        const std::unique_ptr<netgym::Policy> local_ref = reference.clone();
        netgym::Rng env_rng = item_rng.fork();
        netgym::Rng env_rng2 = env_rng;
        auto env_policy = task.make_env(config, env_rng);
        auto env_reference = task.make_env(config, env_rng2);
        const double r_reference =
            netgym::run_episode(*env_reference,
                                local_policy(local_ref, reference), item_rng)
                .mean_reward;
        const double r_policy =
            netgym::run_episode(*env_policy, local_policy(local, policy),
                                item_rng)
                .mean_reward;
        return r_reference - r_policy;
      }));
}

// ---------------------------------------------------------------------------
// ABR
// ---------------------------------------------------------------------------

AbrAdapter::AbrAdapter(int space_id, TraceMixOptions traces)
    : TaskAdapter(std::move(traces)),
      space_(abr::abr_config_space(space_id)),
      space_id_(space_id) {}

std::string AbrAdapter::dist_spec() const {
  // A loaded trace corpus cannot travel in a short spec; keep those local.
  if (!traces_.corpus.empty()) return "";
  return "abr/" + std::to_string(space_id_);
}

int AbrAdapter::obs_size() const { return abr::AbrEnv::kObsSize; }
int AbrAdapter::action_count() const { return abr::kBitrateCount; }

std::unique_ptr<netgym::Env> AbrAdapter::make_env(
    const netgym::Config& config, const netgym::Trace* trace_or_null,
    netgym::Rng& rng) const {
  const abr::AbrEnvConfig cfg = abr::abr_config_from_point(config);
  return trace_or_null != nullptr
             ? abr::make_abr_env(cfg, *trace_or_null, rng)
             : abr::make_abr_env(cfg, rng);
}

const std::vector<std::string>& AbrAdapter::metric_names() const {
  static const std::vector<std::string> kNames = {
      "episode_reward", "rebuffer_s", "bitrate_mbps"};
  return kNames;
}

void AbrAdapter::episode_metrics(const netgym::Env& env,
                                 const netgym::EpisodeStats& stats,
                                 double out[3]) const {
  const auto& totals = dynamic_cast<const abr::AbrEnv&>(env).totals();
  out[0] = stats.mean_reward;
  out[1] = totals.mean_rebuffer_s();
  out[2] = totals.mean_bitrate_mbps();
}

std::unique_ptr<netgym::Env> AbrAdapter::make_env_from_trace(
    const netgym::Trace& trace, netgym::Rng& rng) const {
  return abr::make_abr_env(abr::AbrEnvConfig{}, trace, rng);
}

std::vector<std::string> AbrAdapter::baseline_names() const {
  return {"mpc", "bba", "oboe", "naive"};
}

std::unique_ptr<netgym::Policy> AbrAdapter::make_baseline(
    const std::string& name, const netgym::Env&) const {
  if (name == "mpc") return std::make_unique<abr::RobustMpcPolicy>();
  if (name == "bba") return std::make_unique<abr::BbaPolicy>();
  if (name == "oboe") return std::make_unique<abr::OboePolicy>();
  if (name == "naive") return std::make_unique<abr::NaiveAbrPolicy>();
  throw std::invalid_argument("AbrAdapter: unknown baseline '" + name + "'");
}

double AbrAdapter::optimal_mean_reward(netgym::Env& env, netgym::Rng&) const {
  auto* abr_env = dynamic_cast<abr::AbrEnv*>(&env);
  if (abr_env == nullptr) {
    throw std::invalid_argument("AbrAdapter: env is not an AbrEnv");
  }
  return abr::offline_optimal(*abr_env, /*beam_width=*/32).mean_reward;
}

double AbrAdapter::config_non_smoothness(const netgym::Config& config,
                                         netgym::Rng& rng) const {
  const abr::AbrEnvConfig cfg = abr::abr_config_from_point(config);
  double total = 0.0;
  constexpr int kSamples = 3;
  for (int i = 0; i < kSamples; ++i) {
    auto env = abr::make_abr_env(cfg, rng);
    total += env->trace().non_smoothness();
  }
  return total / kSamples;
}

std::unique_ptr<rl::ActorCriticBase> AbrAdapter::make_trainer(
    std::uint64_t seed) const {
  rl::TrainerOptions options;  // Pensieve trains with A3C; A2C here.
  return std::make_unique<rl::A2CTrainer>(obs_size(), action_count(), options,
                                          seed);
}

// ---------------------------------------------------------------------------
// CC
// ---------------------------------------------------------------------------

CcAdapter::CcAdapter(int space_id, TraceMixOptions traces,
                     bool use_packet_sim)
    : TaskAdapter(std::move(traces)),
      space_(cc::cc_config_space(space_id)),
      use_packet_sim_(use_packet_sim),
      space_id_(space_id) {}

std::string CcAdapter::dist_spec() const {
  if (!traces_.corpus.empty() || use_packet_sim_) return "";
  return "cc/" + std::to_string(space_id_);
}

int CcAdapter::obs_size() const { return cc::CcEnv::kObsSize; }
int CcAdapter::action_count() const { return cc::kRateActionCount; }

std::unique_ptr<netgym::Env> CcAdapter::make_env(
    const netgym::Config& config, const netgym::Trace* trace_or_null,
    netgym::Rng& rng) const {
  const cc::CcEnvConfig cfg = cc::cc_config_from_point(config);
  if (use_packet_sim_) {
    return trace_or_null != nullptr
               ? cc::make_packet_cc_env(cfg, *trace_or_null, rng)
               : cc::make_packet_cc_env(cfg, rng);
  }
  return trace_or_null != nullptr ? cc::make_cc_env(cfg, *trace_or_null, rng)
                                  : cc::make_cc_env(cfg, rng);
}

const std::vector<std::string>& CcAdapter::metric_names() const {
  static const std::vector<std::string> kNames = {
      "episode_reward", "queue_delay_s", "throughput_mbps"};
  return kNames;
}

void CcAdapter::episode_metrics(const netgym::Env& env,
                                const netgym::EpisodeStats& stats,
                                double out[3]) const {
  // Queueing delay above the propagation floor, and delivered throughput;
  // both backends expose the same totals/config/clock API.
  const auto link_metrics = [out](const auto& e) {
    out[1] = std::max(
        e.totals().mean_latency_s() - e.config().min_rtt_ms / 1000.0, 0.0);
    out[2] = e.totals().mean_throughput_mbps(std::max(e.clock_s(), 1e-9));
  };
  out[0] = stats.mean_reward;
  // PacketCcEnv is not a CcEnv: branch on the backend make_env chose.
  if (use_packet_sim_) {
    link_metrics(dynamic_cast<const cc::PacketCcEnv&>(env));
  } else {
    link_metrics(dynamic_cast<const cc::CcEnv&>(env));
  }
}

std::unique_ptr<netgym::Env> CcAdapter::make_env_from_trace(
    const netgym::Trace& trace, netgym::Rng& rng) const {
  if (use_packet_sim_) {
    return cc::make_packet_cc_env(cc::CcEnvConfig{}, trace, rng);
  }
  return cc::make_cc_env(cc::CcEnvConfig{}, trace, rng);
}

std::vector<std::string> CcAdapter::baseline_names() const {
  return {"bbr", "cubic", "vivace", "copa"};
}

std::unique_ptr<netgym::Policy> CcAdapter::make_baseline(
    const std::string& name, const netgym::Env& env) const {
  if (name == "bbr") return std::make_unique<cc::BbrPolicy>();
  if (name == "cubic") return std::make_unique<cc::CubicPolicy>();
  if (name == "vivace") return std::make_unique<cc::VivacePolicy>();
  if (name == "copa") return std::make_unique<cc::CopaPolicy>();
  if (name == "oracle") {
    const auto* cc_env = dynamic_cast<const cc::CcEnv*>(&env);
    if (cc_env == nullptr) {
      throw std::invalid_argument("CcAdapter: env is not a CcEnv");
    }
    return std::make_unique<cc::OraclePolicy>(*cc_env);
  }
  throw std::invalid_argument("CcAdapter: unknown baseline '" + name + "'");
}

double CcAdapter::optimal_mean_reward(netgym::Env& env,
                                      netgym::Rng& rng) const {
  // The oracle reads the trace through a fluid CcEnv; gap-to-optimum is
  // only supported on the fluid backend.
  auto* cc_env = dynamic_cast<cc::CcEnv*>(&env);
  if (cc_env == nullptr) {
    throw std::invalid_argument(
        "CcAdapter: gap-to-optimum needs the fluid CcEnv backend");
  }
  cc::OraclePolicy oracle(*cc_env);
  return netgym::run_episode(*cc_env, oracle, rng).mean_reward;
}

double CcAdapter::config_non_smoothness(const netgym::Config& config,
                                        netgym::Rng& rng) const {
  const cc::CcEnvConfig cfg = cc::cc_config_from_point(config);
  double total = 0.0;
  constexpr int kSamples = 3;
  for (int i = 0; i < kSamples; ++i) {
    auto env = cc::make_cc_env(cfg, rng);
    total += env->trace().non_smoothness();
  }
  return total / kSamples;
}

std::unique_ptr<rl::ActorCriticBase> CcAdapter::make_trainer(
    std::uint64_t seed) const {
  rl::TrainerOptions options;  // Aurora trains with PPO.
  options.max_steps_per_episode = 300;
  return std::make_unique<rl::PPOTrainer>(obs_size(), action_count(), options,
                                          seed);
}

// ---------------------------------------------------------------------------
// LB
// ---------------------------------------------------------------------------

LbAdapter::LbAdapter(int space_id)
    : space_(lb::lb_config_space(space_id)), space_id_(space_id) {}

std::string LbAdapter::dist_spec() const {
  return "lb/" + std::to_string(space_id_);
}

int LbAdapter::obs_size() const { return lb::LbEnv::kObsSize; }
int LbAdapter::action_count() const { return lb::kNumServers; }

std::unique_ptr<netgym::Env> LbAdapter::make_env(
    const netgym::Config& config, const netgym::Trace* trace_or_null,
    netgym::Rng& rng) const {
  if (trace_or_null != nullptr) {
    throw std::invalid_argument("lb: task has no trace-driven environments");
  }
  return lb::make_lb_env(lb::lb_config_from_point(config), rng);
}

const std::vector<std::string>& LbAdapter::metric_names() const {
  static const std::vector<std::string> kNames = {
      "episode_reward", "job_slowdown", "job_delay_s"};
  return kNames;
}

void LbAdapter::episode_metrics(const netgym::Env& env,
                                const netgym::EpisodeStats& stats,
                                double out[3]) const {
  const auto& totals = dynamic_cast<const lb::LbEnv&>(env).totals();
  out[0] = stats.mean_reward;
  out[1] = totals.mean_slowdown();
  out[2] = totals.mean_delay_s();
}

std::vector<std::string> LbAdapter::baseline_names() const {
  return {"llf", "shortest", "least_requests", "po2", "random", "naive"};
}

std::unique_ptr<netgym::Policy> LbAdapter::make_baseline(
    const std::string& name, const netgym::Env& env) const {
  if (name == "llf") return std::make_unique<lb::LlfPolicy>();
  if (name == "shortest") {
    return std::make_unique<lb::ShortestCompletionPolicy>();
  }
  if (name == "least_requests") {
    return std::make_unique<lb::LeastRequestsPolicy>();
  }
  if (name == "random") return std::make_unique<lb::RandomLbPolicy>();
  if (name == "po2") return std::make_unique<lb::PowerOfTwoPolicy>();
  if (name == "naive") return std::make_unique<lb::NaiveLbPolicy>();
  if (name == "oracle") {
    const auto* lb_env = dynamic_cast<const lb::LbEnv*>(&env);
    if (lb_env == nullptr) {
      throw std::invalid_argument("LbAdapter: env is not an LbEnv");
    }
    return std::make_unique<lb::OracleLbPolicy>(*lb_env);
  }
  throw std::invalid_argument("LbAdapter: unknown baseline '" + name + "'");
}

double LbAdapter::optimal_mean_reward(netgym::Env& env,
                                      netgym::Rng& rng) const {
  auto* lb_env = dynamic_cast<lb::LbEnv*>(&env);
  if (lb_env == nullptr) {
    throw std::invalid_argument("LbAdapter: env is not an LbEnv");
  }
  lb::OracleLbPolicy oracle(*lb_env);
  return netgym::run_episode(*lb_env, oracle, rng).mean_reward;
}

std::unique_ptr<rl::ActorCriticBase> LbAdapter::make_trainer(
    std::uint64_t seed) const {
  rl::TrainerOptions options;  // Park's LB example trains with A3C-style PG.
  return std::make_unique<rl::A2CTrainer>(obs_size(), action_count(), options,
                                          seed);
}

}  // namespace genet
