#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "netgym/env.hpp"
#include "rl/policy.hpp"
#include "rl/rollout.hpp"

namespace rl {

/// How many episodes one lockstep job should step together: enough to feed
/// the batched forward pass (up to 32 rows), but no more than half the
/// per-thread share of `items`, so the thread pool still load-balances
/// across jobs of uneven episode length. Always >= 1.
std::size_t lockstep_group_size(std::size_t items);

/// Step a group of environments through full episodes in lockstep under one
/// shared policy, evaluating all still-active episodes' observations in a
/// single batched forward pass per tick. The call owns the workspace of its
/// passes, so any number of calls may share `policy` concurrently.
///
/// `envs[i]` is rolled with `*rngs[i]` supplying its action-sampling draws,
/// for at most `max_steps` steps, exactly like `netgym::run_episode`;
/// episode `i`'s stats land in slot `i` of the result, and when
/// `transitions` is non-null its slot `i` receives the episode's
/// transitions, with `done` forced on the last transition of an episode
/// cut at the step cap.
///
/// Determinism: every episode draws only from its own RNG stream and its own
/// environment, and in strict math mode each row of a batched forward is
/// bit-identical to a scalar forward, so the results are bit-identical to
/// running the episodes one at a time — independent of group size and
/// therefore of thread count. (In fast math mode the batched kernels' FMA
/// rounding makes results group-size-dependent; see DESIGN.md.)
std::vector<netgym::EpisodeStats> run_episodes_lockstep(
    const MlpPolicy& policy, const std::vector<netgym::Env*>& envs,
    const std::vector<netgym::Rng*>& rngs, int max_steps,
    std::vector<std::vector<Transition>>* transitions = nullptr);

}  // namespace rl
