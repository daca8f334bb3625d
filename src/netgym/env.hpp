#pragma once

#include <memory>
#include <vector>

#include "netgym/rng.hpp"

namespace netgym {

/// Observation vector handed to policies. Each environment documents the
/// layout of its observation; rule-based baselines read the named slices they
/// need, while RL policies consume the whole vector.
using Observation = std::vector<double>;

/// A sequential decision-making environment with a discrete action space
/// (bitrate index for ABR, rate-change level for CC, server index for LB).
/// The contract mirrors the usual RL gym interface:
///   obs = env.reset();  while (!done) { step(action) -> {obs, reward, done} }
class Env {
 public:
  virtual ~Env() = default;

  /// Start a new episode and return the initial observation.
  virtual Observation reset() = 0;

  struct StepResult {
    Observation observation;
    double reward = 0.0;
    bool done = false;
  };

  /// Apply an action (in [0, action_count())) and advance the environment.
  /// Must not be called after an episode has finished.
  virtual StepResult step(int action) = 0;

  virtual int action_count() const = 0;
  virtual std::size_t observation_size() const = 0;
};

/// A decision-making policy: RL models and rule-based baselines share this
/// interface so that Genet's Train/Test API (Fig. 8) is agnostic to which is
/// being evaluated.
class Policy {
 public:
  virtual ~Policy() = default;

  /// Reset any per-episode internal state (e.g. Cubic's congestion window).
  virtual void begin_episode() {}

  /// Choose an action for the given observation. `rng` supplies any sampling
  /// randomness (deterministic policies ignore it).
  virtual int act(const Observation& obs, Rng& rng) = 0;

  /// Deep copy for parallel evaluation: workers hand each episode its own
  /// clone so `act`'s internal state (e.g. MPC's error tracker) is never
  /// shared across threads. Returns nullptr when the
  /// policy cannot be copied (e.g. oracles bound to one environment), in
  /// which case evaluation helpers fall back to a serial loop — with the
  /// same per-item RNG streams, so results do not change.
  virtual std::unique_ptr<Policy> clone() const { return nullptr; }
};

/// Outcome of rolling a policy through one episode.
struct EpisodeStats {
  double total_reward = 0.0;
  double mean_reward = 0.0;  ///< Table 1 rewards are per-step averages
  int steps = 0;
};

/// Step cap of an episode given no bound of its own: a safety net against
/// non-terminating environments.
constexpr int kMaxEpisodeSteps = 100000;

/// Run `policy` on `env` for one full episode, at most `max_steps` steps.
EpisodeStats run_episode(Env& env, Policy& policy, Rng& rng,
                         int max_steps = kMaxEpisodeSteps);

}  // namespace netgym
