#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "netgym/env.hpp"
#include "netgym/rng.hpp"
#include "nn/mlp.hpp"

namespace rl {

/// A categorical (softmax) policy over a discrete action space, backed by an
/// MLP that maps observations to logits. This is the DNN policy shape used by
/// all three use cases (bitrate index for ABR, rate-change level for CC,
/// server index for LB).
///
/// `act` samples from the softmax distribution (training / stochastic
/// evaluation); `set_greedy(true)` switches to argmax actions (deployment
/// evaluation, the mode used by every test harness).
///
/// The `_batch` entry points push many observations through one batched
/// forward pass (see nn::Mlp); in strict math mode their results are
/// bit-identical to looping `act`. They are const and write only the
/// caller's `Workspace`, so threads share one policy, one workspace each.
/// `act` runs on a small workspace of the policy's own, at n = 1.
class MlpPolicy : public netgym::Policy {
 public:
  /// Scratch of one thread running the policy: the network's pass buffers
  /// and the sampling probabilities.
  struct Workspace {
    nn::Mlp::Workspace net;
    std::vector<double> probs;
  };

  MlpPolicy(int obs_size, int action_count, const std::vector<int>& hidden,
            netgym::Rng& rng);

  int act(const netgym::Observation& obs, netgym::Rng& rng) override;

  std::unique_ptr<netgym::Policy> clone() const override {
    return std::make_unique<MlpPolicy>(*this);
  }

  /// Logits for an observation (runs a forward pass).
  std::vector<double> logits(const netgym::Observation& obs) const;

  /// Action probabilities for an observation.
  std::vector<double> probs(const netgym::Observation& obs) const;

  /// One action per observation row (packed row-major, `n x obs_size`),
  /// sampled from that row's softmax using the row's own RNG stream (or
  /// argmax when greedy). Writes `actions[0..n)`. Each row consumes exactly
  /// the RNG draws of a scalar `act` call on `*rngs[i]`, so lockstepped
  /// rollouts stay stream-for-stream identical to sequential ones.
  void act_batch(const double* obs, std::size_t n, netgym::Rng* const* rngs,
                 int* actions, Workspace& ws) const;

  bool greedy() const { return greedy_; }
  void set_greedy(bool greedy) { greedy_ = greedy; }

  int action_count() const { return net_.output_size(); }
  int obs_size() const { return net_.input_size(); }

  nn::Mlp& net() { return net_; }
  const nn::Mlp& net() const { return net_; }

  /// Copy of all network parameters (for model snapshots / restarts).
  std::vector<double> snapshot() const { return net_.params(); }
  void restore(const std::vector<double>& params) { net_.set_params(params); }

 private:
  /// Logits of one observation, checked against the input width.
  const std::vector<double>& forward_one(const netgym::Observation& obs,
                                         Workspace& ws) const;
  int sample_row(const double* logits_row, netgym::Rng& rng,
                 std::vector<double>& probs) const;

  nn::Mlp net_;
  bool greedy_ = false;
  Workspace own_;  ///< `act`'s workspace
};

}  // namespace rl
