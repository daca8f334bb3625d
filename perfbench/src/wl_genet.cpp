// genet_abr: Genet curriculum rounds on ABR (space RL3, RobustMPC baseline),
// composed from the program's public calls exactly as
// genet::CurriculumTrainer::run_round() composes them: 100 train_iterations
// on the current distribution, GenetScheme::select with 15 BO trials x 10
// envs on the greedy policy, ConfigDistribution::promote at weight 0.3.
//
// A run times the first round of independent curricula, each seeded from the
// workload seed, until the measured window is used up. One long curriculum
// follows a single seed-dependent trajectory whose cost varies by tens of
// percent between seeds; so does the mean round of short curricula, whose
// later rounds train on a seed-dependent promoted config. The median over
// about fifty first rounds is steady.

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "genet/adapter.hpp"
#include "genet/curriculum.hpp"
#include "netgym/config.hpp"
#include "netgym/rng.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kItersPerRound = 100;   // genet train's default 900 iters / 9 rounds
constexpr int kBoTrials = 15;         // GenetScheme's default search shape
constexpr int kEnvsPerEval = 10;
constexpr double kPromoteWeight = 0.3;
constexpr int kCheckRounds = 2;       // rounds replayed by CurriculumTrainer
constexpr std::uint64_t kWarmSeed = 0x77a3;  // warm-up state, same every run
// Warm-up: a few training iterations and one BO trial's gap evaluation. Big
// enough that thread wake-ups do not dominate the set-up time.
constexpr int kWarmIters = 5;
const char* const kBaseline = "mpc";
// CurriculumTrainer seeds its selection stream as seed ^ this constant
// (src/genet/curriculum.cpp); the composed round must draw the same stream.
constexpr std::uint64_t kCurriculumRngSalt = 0xc2b2ae3d27d4eb4fULL;

genet::SearchOptions search_options() {
  genet::SearchOptions s;
  s.bo_trials = kBoTrials;
  s.envs_per_eval = kEnvsPerEval;
  return s;
}

struct Curriculum {
  std::unique_ptr<rl::ActorCriticBase> trainer;
  std::unique_ptr<netgym::ConfigDistribution> dist;
  std::unique_ptr<genet::GenetScheme> scheme;
  std::unique_ptr<netgym::Rng> rng;
};

/// The state CurriculumTrainer builds for `seed` before its first round.
Curriculum start_curriculum(const genet::AbrAdapter& adapter, std::uint64_t seed) {
  Curriculum c;
  c.trainer = spans::call("genet", "genet.make_trainer",
                          [&] { return adapter.make_trainer(seed); });
  c.dist = std::make_unique<netgym::ConfigDistribution>(adapter.space());
  c.scheme = std::make_unique<genet::GenetScheme>(kBaseline, search_options());
  c.rng = std::make_unique<netgym::Rng>(seed ^ kCurriculumRngSalt);
  return c;
}

/// The adapter, plus a warm-up on throwaway state (kWarmIters training
/// iterations and one gap evaluation, from a fixed seed so every run sets up
/// the same work) so the pool threads and the ABR, MPC and MLP code paths are
/// live before timing starts.
std::unique_ptr<genet::AbrAdapter> set_up() {
  using spans::call;
  auto adapter = call("genet", "genet.AbrAdapter",
                      [] { return std::make_unique<genet::AbrAdapter>(3); });
  Curriculum warm = start_curriculum(*adapter, kWarmSeed);
  const rl::EnvFactory factory =
      call("genet", "genet.factory_for", [&] { return adapter->factory_for(*warm.dist); });
  for (int i = 0; i < kWarmIters; ++i) {
    call("rl", "rl.train_iteration", [&] { return warm.trainer->train_iteration(factory); });
  }
  netgym::Rng warm_rng(kWarmSeed);
  rl::MlpPolicy& policy = warm.trainer->policy();
  policy.set_greedy(true);
  call("genet", "genet.gap_to_baseline", [&] {
    return genet::gap_to_baseline(*adapter, policy, kBaseline,
                                  adapter->space().midpoint(), kEnvsPerEval, warm_rng);
  });
  return adapter;
}

std::uint64_t curriculum_seed(std::uint64_t workload_seed, int k) {
  return workload_seed * 1000 + static_cast<std::uint64_t>(k);
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct RoundRecord {
  double seconds = 0.0;
  int steps = 0;
  double rollout_s = 0.0;
  double update_s = 0.0;
  netgym::Config promoted;
};

/// Round `r` of curriculum `c`, timed, inside a "bench.round" span.
RoundRecord run_round(const genet::AbrAdapter& adapter, Curriculum& c, int r) {
  using spans::call;
  RoundRecord rec;
  const std::int64_t t0 = spans::now_ns();
  {
    spans::Scope round_span("bench", "bench.round");
    const rl::EnvFactory factory =
        call("genet", "genet.factory_for", [&] { return adapter.factory_for(*c.dist); });
    for (int i = 0; i < kItersPerRound; ++i) {
      const rl::IterationStats st = call(
          "rl", "rl.train_iteration", [&] { return c.trainer->train_iteration(factory); });
      rec.steps += st.steps;
      rec.rollout_s += st.rollout_seconds;
      rec.update_s += st.update_seconds;
    }
    rl::MlpPolicy& policy = c.trainer->policy();
    const bool was_greedy = policy.greedy();
    policy.set_greedy(true);
    const genet::CurriculumScheme::Selection sel = call(
        "genet", "genet.select", [&] { return c.scheme->select(adapter, policy, r, *c.rng); });
    policy.set_greedy(was_greedy);
    call("netgym", "netgym.promote", [&] { c.dist->promote(sel.config, kPromoteWeight); });
    rec.promoted = sel.config;
  }
  rec.seconds = static_cast<double>(spans::now_ns() - t0) * 1e-9;
  return rec;
}

}  // namespace

Result run_genet_abr(const Options& opt) {
  Result res;
  spans::set_enabled(opt.trace);

  std::vector<double> setup_times;
  std::unique_ptr<genet::AbrAdapter> adapter;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = spans::now_ns();
    adapter = set_up();
    setup_times.push_back(static_cast<double>(spans::now_ns() - t0) * 1e-9);
  }

  // Measured window: the first round of fresh curricula until the deadline
  // has passed. Only the rounds are timed; building each trainer is not.
  std::vector<RoundRecord> rounds;
  std::vector<double> round_s;
  const std::int64_t deadline =
      spans::now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  while (rounds.empty() || spans::now_ns() < deadline) {
    const auto k = static_cast<int>(rounds.size());
    Curriculum c = start_curriculum(*adapter, curriculum_seed(opt.seed, k));
    rounds.push_back(run_round(*adapter, c, 0));
    round_s.push_back(rounds.back().seconds);
  }

  // Correctness: the first curriculum composed for kCheckRounds rounds, so
  // the second round trains on the promoted distribution, must reach a
  // byte-identical policy and promote byte-identical configs to
  // CurriculumTrainer::run() on the same seed. The replay does the same work
  // without the benchmark's spans, which makes it the untraced twin of the
  // composed rounds in a traced run.
  const int check = kCheckRounds;
  Curriculum composed = start_curriculum(*adapter, curriculum_seed(opt.seed, 0));
  std::vector<netgym::Config> promoted;
  double composed_s = 0.0;
  for (int r = 0; r < check; ++r) {
    const RoundRecord rec = run_round(*adapter, composed, r);
    promoted.push_back(rec.promoted);
    composed_s += rec.seconds;
  }
  spans::set_enabled(false);
  genet::CurriculumOptions copt;
  copt.rounds = check;
  copt.iters_per_round = kItersPerRound;
  copt.promote_weight = kPromoteWeight;
  copt.seed = curriculum_seed(opt.seed, 0);
  genet::CurriculumTrainer reference(
      *adapter, std::make_unique<genet::GenetScheme>(kBaseline, search_options()),
      copt);
  const std::int64_t ref_t0 = spans::now_ns();
  const std::vector<genet::CurriculumRound> ref_rounds = reference.run();
  const double reference_s = static_cast<double>(spans::now_ns() - ref_t0) * 1e-9;
  bool identical = same_bytes(reference.trainer().snapshot(), composed.trainer->snapshot()) &&
                   same_bytes(ref_rounds[0].promoted.values, rounds[0].promoted.values);
  for (int r = 0; r < check; ++r) {
    identical = identical && same_bytes(ref_rounds[r].promoted.values,
                                        promoted[r].values);
  }
  res.attempted = static_cast<std::int64_t>(rounds.size()) + 2 * check;
  res.failed = identical ? 0 : 2 * check;
  res.correct = identical;
  res.note("check", jobj({{"reference_rounds", jnum(check)},
                          {"policy_and_configs_identical",
                           identical ? "true" : "false"}}));

  res.note("rounds", jnum(static_cast<double>(rounds.size())));
  res.note("round_s_mean",
           jnum(std::accumulate(round_s.begin(), round_s.end(), 0.0) /
                static_cast<double>(round_s.size())));
  res.note("round_s", jnums(round_s));
  res.note("round_shape", jobj({{"rounds_per_curriculum", jnum(1)},
                                {"train_iterations", jnum(kItersPerRound)},
                                {"bo_trials", jnum(kBoTrials)},
                                {"envs_per_eval", jnum(kEnvsPerEval)},
                                {"baseline", jstr(kBaseline)},
                                {"space", jstr("RL3")}}));
  res.note("setup_reps_s", jnums(setup_times));

  if (!opt.trace) {
    // The operation is one curriculum round. Median over rounds: a short
    // stall of the host moves one round, not the result.
    const double median_round_s = median(round_s);
    res.metric("setup_s", median(setup_times), "s");
    res.metric("op_ms", median_round_s * 1e3, "ms");
    res.detail("genet.round_s", median_round_s, "s");
    return res;
  }

  // Per-layer metrics from the traced rounds' spans.
  const std::vector<spans::Span> all = spans::collect();
  const std::vector<spans::Span> in_round = spans::children_of(all, "bench.round");
  const std::vector<double> train = spans::durations(in_round, "rl.train_iteration");
  const std::vector<double> select = spans::durations(in_round, "genet.select");
  std::int64_t traced_rounds = 0;
  const Partition part = spans::partition_under(all, "bench.round", &traced_rounds);
  double rollout = 0.0, update = 0.0, steps = 0.0;
  for (const RoundRecord& r : rounds) {
    rollout += r.rollout_s;
    update += r.update_s;
    steps += r.steps;
  }
  const auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
  };
  const auto per_round_ms = [&](const char* name) {
    const std::vector<double> d = spans::durations(in_round, name);
    return traced_rounds > 0
               ? std::accumulate(d.begin(), d.end(), 0.0) * 1e3 / traced_rounds
               : 0.0;
  };
  const double iters = static_cast<double>(rounds.size()) * kItersPerRound;
  const double select_s = mean(select);
  res.detail("rl.train_iteration_s", mean(train), "s");
  res.detail("rl.rollout_s", iters > 0 ? rollout / iters : 0.0, "s");
  res.detail("rl.update_s", iters > 0 ? update / iters : 0.0, "s");
  res.detail("rl.env_steps_per_s", rollout > 0 ? steps / rollout : 0.0, "1/s");
  res.detail("genet.select_s", select_s, "s");
  res.detail("genet.gap_episodes_per_s",
             select_s > 0 ? 2.0 * kBoTrials * kEnvsPerEval / select_s : 0.0, "1/s");
  res.detail("genet.round_unattributed_s",
             traced_rounds > 0 ? part.unattributed / traced_rounds : 0.0, "s");

  // The round's partition onto the shared per-layer names, per round.
  res.metric("op_traced_ms", traced_rounds > 0 ? part.total * 1e3 / traced_rounds : 0.0,
             "ms");
  res.metric("layer1_ms", per_round_ms("rl.train_iteration"), "ms");
  res.metric("layer2_ms", per_round_ms("genet.select"), "ms");
  res.metric("layer3_ms", per_round_ms("genet.factory_for"), "ms");
  res.metric("layer4_ms", per_round_ms("netgym.promote"), "ms");
  res.metric("unattributed_ms",
             traced_rounds > 0 ? part.unattributed * 1e3 / traced_rounds : 0.0, "ms");
  res.metric("trace_overhead_frac", (composed_s - reference_s) / reference_s, "fraction");

  res.note("partition", partition_json(part, "bench.round", traced_rounds));
  if (part.overcommitted) res.correct = false;
  return res;
}

}  // namespace perfbench
