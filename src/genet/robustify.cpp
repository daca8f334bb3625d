#include "genet/robustify.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "abr/env.hpp"
#include "abr/optimal.hpp"
#include "genet/curriculum.hpp"

namespace genet {

namespace {

using abr::AbrEnv;

constexpr double kRttS = 0.08;
constexpr double kMaxBufferS = 60.0;

double level_bw(const RobustifyOptions& options, int action) {
  const double u = options.bw_levels > 1
                       ? static_cast<double>(action) / (options.bw_levels - 1)
                       : 0.5;
  return options.min_bw_mbps *
         std::pow(options.max_bw_mbps / options.min_bw_mbps, u);
}

/// Co-simulation environment in which the AGENT is the adversary: each step
/// sets the link bandwidth for the next chunk, the frozen victim policy
/// picks a bitrate, and at the session's end the adversary is paid the
/// victim's regret against the offline optimal minus the smoothness
/// penalty (Appendix A.6).
class AdversaryEnv : public netgym::Env {
 public:
  static constexpr int kObsSize = 6;

  // `victim` must outlive the env. Envs are stepped concurrently by the
  // parallel rollout engine, so each acts through its own workspace.
  AdversaryEnv(const rl::MlpPolicy& victim, const RobustifyOptions& options,
               std::uint64_t seed)
      : victim_(victim),
        options_(options),
        video_(options.video_length_s, options.chunk_length_s, seed),
        video_seed_(seed),
        rng_(seed ^ 0x5851f42d4c957f2dULL) {}

  netgym::Observation reset() override {
    clock_s_ = 0.0;
    buffer_s_ = 0.0;
    chunk_ = 0;
    last_bitrate_ = 0;
    started_ = false;
    done_ = false;
    last_bw_ = 0.0;
    last_delay_s_ = 0.0;
    last_victim_reward_ = 0.0;
    victim_total_ = 0.0;
    smoothness_penalty_ = 0.0;
    thpt_hist_.assign(AbrEnv::kThroughputHistory, 0.0);
    delay_hist_.assign(AbrEnv::kThroughputHistory, 0.0);
    segment_starts_.clear();
    segment_bw_.clear();
    return make_observation();
  }

  StepResult step(int action) override {
    if (done_) throw std::logic_error("AdversaryEnv::step: episode finished");
    if (action < 0 || action >= options_.bw_levels) {
      throw std::invalid_argument("AdversaryEnv::step: action out of range");
    }
    const double bw = level_bw(options_, action);
    if (started_) smoothness_penalty_ += std::abs(bw - last_bw_);
    segment_starts_.push_back(clock_s_);
    segment_bw_.push_back(bw);

    // The frozen victim chooses the bitrate for this chunk.
    const netgym::Observation victim_obs = victim_observation();
    netgym::Rng* rngs[1] = {&rng_};
    int bitrate = 0;
    victim_.act_batch(victim_obs.data(), 1, rngs, &bitrate, victim_ws_);
    const double bits = video_.chunk_size_bits(chunk_, bitrate);
    const double delay = bits / (bw * 1e6) + kRttS;

    const double rebuffer = std::max(delay - buffer_s_, 0.0);
    buffer_s_ = std::max(buffer_s_ - delay, 0.0) + options_.chunk_length_s;
    clock_s_ += delay;
    if (buffer_s_ > kMaxBufferS) {
      clock_s_ += buffer_s_ - kMaxBufferS;
      buffer_s_ = kMaxBufferS;
    }
    const double change =
        started_ ? std::abs(abr::bitrate_mbps(bitrate) -
                            abr::bitrate_mbps(last_bitrate_))
                 : 0.0;
    last_victim_reward_ =
        abr::bitrate_mbps(bitrate) - 10.0 * rebuffer - change;
    victim_total_ += last_victim_reward_;

    // Update the victim's history features the way AbrEnv would.
    thpt_hist_.erase(thpt_hist_.begin());
    thpt_hist_.push_back(bits / 1e6 / std::max(delay, 1e-6));
    delay_hist_.erase(delay_hist_.begin());
    delay_hist_.push_back(delay);

    last_bw_ = bw;
    last_delay_s_ = delay;
    last_bitrate_ = bitrate;
    started_ = true;
    ++chunk_;
    done_ = chunk_ >= video_.num_chunks();

    StepResult result;
    result.done = done_;
    result.reward = done_ ? terminal_objective() : 0.0;
    result.observation = make_observation();
    return result;
  }

  int action_count() const override { return options_.bw_levels; }
  std::size_t observation_size() const override { return kObsSize; }

  /// The bandwidth trace the adversary produced this episode (valid after
  /// the episode finished).
  netgym::Trace built_trace() const {
    netgym::Trace trace;
    double last = -1.0;
    for (std::size_t i = 0; i < segment_starts_.size(); ++i) {
      const double stamp = std::max(segment_starts_[i], last + 1e-4);
      trace.timestamps_s.push_back(stamp);
      trace.bandwidth_mbps.push_back(segment_bw_[i]);
      last = stamp;
    }
    // Hold the final bandwidth well past the session so the offline optimal
    // never wraps around within its planning horizon.
    trace.timestamps_s.push_back(last + 2 * options_.video_length_s + 120.0);
    trace.bandwidth_mbps.push_back(segment_bw_.empty() ? 1.0
                                                       : segment_bw_.back());
    trace.validate();
    return trace;
  }

  double terminal_objective() const {
    // Offline optimal on the exact conditions the victim experienced.
    abr::AbrEnvConfig config;
    config.video_length_s = options_.video_length_s;
    config.chunk_length_s = options_.chunk_length_s;
    config.max_buffer_s = kMaxBufferS;
    config.min_rtt_ms = kRttS * 1000.0;
    AbrEnv env(config, built_trace(), video_seed_);
    const double optimal = abr::offline_optimal(env, 24).total_reward;
    const int chunks = video_.num_chunks();
    const double mean_unsmoothness =
        chunks > 1 ? smoothness_penalty_ / (chunks - 1) : 0.0;
    return (optimal - victim_total_) / chunks -
           options_.rho * mean_unsmoothness;
  }

 private:
  netgym::Observation victim_observation() const {
    netgym::Observation obs(AbrEnv::kObsSize, 0.0);
    obs[AbrEnv::kObsLastBitrate] =
        static_cast<double>(last_bitrate_) / (abr::kBitrateCount - 1);
    obs[AbrEnv::kObsBuffer] = buffer_s_ / 30.0;
    for (int i = 0; i < AbrEnv::kThroughputHistory; ++i) {
      obs[AbrEnv::kObsThroughputHist + i] = std::log10(1.0 + thpt_hist_[i]);
      obs[AbrEnv::kObsDelayHist + i] = std::log10(1.0 + delay_hist_[i]);
    }
    const int chunk = std::min(chunk_, video_.num_chunks() - 1);
    for (int b = 0; b < abr::kBitrateCount; ++b) {
      obs[AbrEnv::kObsNextSizes + b] = video_.chunk_size_bits(chunk, b) / 8e6;
    }
    obs[AbrEnv::kObsRemaining] =
        static_cast<double>(video_.num_chunks() - chunk_) /
        video_.num_chunks();
    obs[AbrEnv::kObsChunkLength] = options_.chunk_length_s / 10.0;
    obs[AbrEnv::kObsMinRtt] = kRttS;
    obs[AbrEnv::kObsMaxBuffer] = kMaxBufferS / 100.0;
    return obs;
  }

  netgym::Observation make_observation() const {
    netgym::Observation obs(kObsSize, 0.0);
    obs[0] = std::log10(1.0 + last_bw_);
    obs[1] = static_cast<double>(last_bitrate_) / (abr::kBitrateCount - 1);
    obs[2] = buffer_s_ / 30.0;
    obs[3] = static_cast<double>(video_.num_chunks() - chunk_) /
             video_.num_chunks();
    obs[4] = std::log10(1.0 + last_delay_s_);
    obs[5] = last_victim_reward_ / 5.0;
    return obs;
  }

  const rl::MlpPolicy& victim_;
  rl::MlpPolicy::Workspace victim_ws_;
  const RobustifyOptions options_;
  abr::Video video_;
  std::uint64_t video_seed_;
  mutable netgym::Rng rng_;
  double clock_s_ = 0.0;
  double buffer_s_ = 0.0;
  int chunk_ = 0;
  int last_bitrate_ = 0;
  bool started_ = false;
  bool done_ = true;
  double last_bw_ = 0.0;
  double last_delay_s_ = 0.0;
  double last_victim_reward_ = 0.0;
  double victim_total_ = 0.0;
  double smoothness_penalty_ = 0.0;
  std::vector<double> thpt_hist_;
  std::vector<double> delay_hist_;
  std::vector<double> segment_starts_;
  std::vector<double> segment_bw_;
};

}  // namespace

AbrAdversary::AbrAdversary(rl::MlpPolicy& victim, RobustifyOptions options,
                           std::uint64_t seed)
    : victim_(victim), options_(options) {
  if (options_.bw_levels < 2 || options_.min_bw_mbps <= 0 ||
      options_.max_bw_mbps <= options_.min_bw_mbps) {
    throw std::invalid_argument("AbrAdversary: invalid options");
  }
  if (victim_.obs_size() != AbrEnv::kObsSize) {
    throw std::invalid_argument("AbrAdversary: victim is not an ABR policy");
  }
  rl::TrainerOptions trainer_options;
  trainer_options.hidden = {16, 16};
  trainer_options.gamma = 1.0;  // terminal-only objective
  trainer_options.episodes_per_iteration = 8;
  trainer_ = std::make_unique<rl::A2CTrainer>(AdversaryEnv::kObsSize,
                                              options_.bw_levels,
                                              trainer_options, seed);
}

void AbrAdversary::train() {
  const bool was_greedy = victim_.greedy();
  victim_.set_greedy(true);  // attack the deployed (greedy) behaviour
  const rl::EnvFactory factory = [this](netgym::Rng& rng) {
    return std::make_unique<AdversaryEnv>(victim_, options_, rng.engine()());
  };
  for (int i = 0; i < options_.adversary_iters; ++i) {
    const rl::IterationStats stats = trainer_->train_iteration(factory);
    last_objective_ = stats.mean_episode_reward;
  }
  victim_.set_greedy(was_greedy);
}

void AbrAdversary::save_state(netgym::checkpoint::Snapshot& snap,
                              const std::string& prefix) const {
  trainer_->save_state(snap, prefix + "trainer/");
  snap.put_double(prefix + "last_objective", last_objective_);
}

void AbrAdversary::load_state(const netgym::checkpoint::Snapshot& snap,
                              const std::string& prefix) {
  const double last_objective = snap.get_double(prefix + "last_objective");
  trainer_->load_state(snap, prefix + "trainer/");
  last_objective_ = last_objective;
}

netgym::Trace AbrAdversary::generate(netgym::Rng& rng) {
  const bool was_greedy = victim_.greedy();
  victim_.set_greedy(true);
  AdversaryEnv env(victim_, options_, rng.engine()());
  netgym::Observation obs = env.reset();
  bool done = false;
  while (!done) {
    // Sample (not argmax) so repeated calls yield diverse traces.
    const int action = trainer_->policy().act(obs, rng);
    const auto result = env.step(action);
    obs = result.observation;
    done = result.done;
  }
  victim_.set_greedy(was_greedy);
  return env.built_trace();
}

std::unique_ptr<rl::ActorCriticBase> robustify_train(
    int space_id, int pretrain_iters, int retrain_iters, int alternations,
    RobustifyOptions options, std::uint64_t seed) {
  if (alternations < 1) {
    throw std::invalid_argument("robustify_train: alternations must be >= 1");
  }
  AbrAdapter plain(space_id);
  auto trainer = genet::train_traditional(plain, pretrain_iters, seed);
  netgym::Rng rng(seed ^ 0x2545f4914f6cdd1dULL);

  for (int round = 0; round < alternations; ++round) {
    AbrAdversary adversary(trainer->policy(), options, seed + round);
    adversary.train();

    // Mix a batch of adversarial traces into the training distribution.
    TraceMixOptions mix;
    for (int i = 0; i < 20; ++i) mix.corpus.push_back(adversary.generate(rng));
    AbrAdapter mixed(space_id, std::move(mix));
    const netgym::ConfigDistribution dist(mixed.space());
    const rl::EnvFactory factory = mixed.factory_for(dist);
    for (int i = 0; i < retrain_iters; ++i) trainer->train_iteration(factory);
  }
  return trainer;
}

}  // namespace genet
