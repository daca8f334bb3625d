#include "rl/lockstep.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "netgym/parallel.hpp"
#include "netgym/tracing.hpp"

namespace rl {

std::size_t lockstep_group_size(std::size_t items) {
  const std::size_t threads =
      static_cast<std::size_t>(std::max(netgym::num_threads(), 1));
  const std::size_t share = items / (2 * threads);
  return std::clamp<std::size_t>(share, 1, 32);
}

std::vector<netgym::EpisodeStats> run_episodes_lockstep(
    const MlpPolicy& policy, const std::vector<netgym::Env*>& envs,
    const std::vector<netgym::Rng*>& rngs, int max_steps,
    std::vector<std::vector<Transition>>* transitions) {
  if (max_steps <= 0) {
    throw std::invalid_argument("run_episodes_lockstep: max_steps must be > 0");
  }
  if (envs.size() != rngs.size()) {
    throw std::invalid_argument(
        "run_episodes_lockstep: envs/rngs size mismatch");
  }
  const std::size_t n = envs.size();
  std::vector<netgym::EpisodeStats> stats(n);
  if (transitions != nullptr) {
    transitions->clear();
    transitions->resize(n);
  }
  if (n == 0) return stats;

  const int obs_size = policy.obs_size();

  // Per-episode state. Episodes start in index order (each env's reset draws
  // only from its own stream, so start order is unobservable) and drop out of
  // the active set as they finish.
  std::vector<netgym::Observation> obs(n);
  std::vector<int> steps_taken(n, 0);
  std::vector<std::size_t> active;
  active.reserve(n);
  // Episodes interleave on this thread, so RAII spans cannot scope them;
  // each episode's [reset, last step] window is emitted manually instead,
  // keeping per-episode spans in traces at any group size.
  const bool traced = netgym::tracing::enabled();
  std::vector<std::int64_t> span_start(traced ? n : 0, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (traced) span_start[i] = netgym::tracing::now_ns();
    obs[i] = envs[i]->reset();
    active.push_back(i);
  }

  MlpPolicy::Workspace ws;
  std::vector<double> obs_rows;
  std::vector<netgym::Rng*> row_rngs;
  std::vector<int> actions;
  while (!active.empty()) {
    const std::size_t rows = active.size();
    obs_rows.resize(rows * static_cast<std::size_t>(obs_size));
    row_rngs.resize(rows);
    actions.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t i = active[r];
      std::copy(obs[i].begin(), obs[i].end(),
                obs_rows.begin() + r * obs_size);
      row_rngs[r] = rngs[i];
    }
    policy.act_batch(obs_rows.data(), rows, row_rngs.data(), actions.data(),
                     ws);

    // Step every active env, compacting finished episodes out in place.
    std::size_t keep = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t i = active[r];
      const int action = actions[r];
      if (action < 0 || action >= envs[i]->action_count()) {
        throw std::logic_error(
            "run_episodes_lockstep: policy produced an invalid action");
      }
      netgym::Env::StepResult result = envs[i]->step(action);
      stats[i].total_reward += result.reward;
      ++stats[i].steps;
      const int s = steps_taken[i]++;
      const bool hit_cap = (s + 1 == max_steps);
      if (transitions != nullptr) {
        // Same record as collect_batch's loop: the step that hits the cap is
        // marked done even if the env would have continued.
        (*transitions)[i].push_back(Transition{
            std::move(obs[i]), action, result.reward, result.done || hit_cap});
      }
      if (result.done || hit_cap) {  // episode i leaves the batch
        if (traced) {
          const std::int64_t now = netgym::tracing::now_ns();
          netgym::tracing::emit_span("episode", "env", span_start[i],
                                     now - span_start[i],
                                     static_cast<std::int64_t>(i));
        }
        continue;
      }
      obs[i] = std::move(result.observation);
      active[keep++] = i;
    }
    active.resize(keep);
  }

  for (std::size_t i = 0; i < n; ++i) {
    stats[i].mean_reward =
        stats[i].steps > 0 ? stats[i].total_reward / stats[i].steps : 0.0;
  }
  return stats;
}

}  // namespace rl
