#pragma once

#include <memory>

#include "abr/env.hpp"
#include "netgym/env.hpp"

namespace abr {

/// Buffer-Based Adaptation (BBA [23]): maps the current playback-buffer
/// occupancy linearly onto the bitrate ladder between a reservoir and an
/// upper threshold, both derived from the player's buffer capacity (the BBA
/// paper's reservoir/cushion scheme). Deterministic and stateless.
class BbaPolicy : public netgym::Policy {
 public:
  int act(const netgym::Observation& obs, netgym::Rng& rng) override;
  std::unique_ptr<netgym::Policy> clone() const override {
    return std::make_unique<BbaPolicy>(*this);
  }
};

/// The MPC planning core shared by RobustMPC and Oboe: under a constant
/// throughput prediction, the first bitrate of the `horizon`-chunk bitrate
/// sequence with the best predicted Table-1 reward. The first chunk uses the
/// observed next-chunk sizes, later chunks the nominal ladder sizes. Ties go
/// to the lexicographically first sequence. The result equals exhaustive
/// enumeration of all 6^horizon sequences bit for bit; an exact
/// branch-and-bound search reaches it visiting far fewer (DESIGN.md, "MPC
/// planner"). Throws std::invalid_argument when `horizon` <= 0 and
/// std::out_of_range when the observed last bitrate is off the ladder.
int mpc_best_first_action(const netgym::Observation& obs,
                          double predicted_throughput_mbps, int horizon);

/// RobustMPC [57]: model-predictive control over a short lookahead horizon.
/// Throughput is predicted as the harmonic mean of recent measurements,
/// discounted by a decaying max of recent prediction errors (the "robust"
/// part); mpc_best_first_action then plans the bitrate over the horizon.
class RobustMpcPolicy : public netgym::Policy {
 public:
  explicit RobustMpcPolicy(int horizon = 5);

  void begin_episode() override;
  int act(const netgym::Observation& obs, netgym::Rng& rng) override;
  std::unique_ptr<netgym::Policy> clone() const override {
    return std::make_unique<RobustMpcPolicy>(*this);
  }

 private:
  double predict_throughput_mbps(const netgym::Observation& obs);

  int horizon_;
  double last_prediction_mbps_ = 0.0;
  double max_error_ = 0.0;
};

/// Oboe [5] (simplified): auto-tunes the MPC throughput discount from the
/// observed mean and variance of recent throughput, instead of RobustMPC's
/// online error tracking. The paper calls Oboe "a very competitive
/// baseline" (footnote 3) and plots it in Fig. 17.
class OboePolicy : public netgym::Policy {
 public:
  explicit OboePolicy(int horizon = 5);
  int act(const netgym::Observation& obs, netgym::Rng& rng) override;
  std::unique_ptr<netgym::Policy> clone() const override {
    return std::make_unique<OboePolicy>(*this);
  }

 private:
  int horizon_;
};

/// The deliberately unreasonable ABR baseline of S5.4 ("choosing the highest
/// bitrate when rebuffer"): requests the top ladder rate whenever the buffer
/// is nearly empty and the bottom rate otherwise. Used to show what happens
/// when Genet is guided by a naive baseline.
class NaiveAbrPolicy : public netgym::Policy {
 public:
  int act(const netgym::Observation& obs, netgym::Rng& rng) override;
  std::unique_ptr<netgym::Policy> clone() const override {
    return std::make_unique<NaiveAbrPolicy>(*this);
  }
};

/// Fixed-bitrate policy (useful reference and test fixture).
class ConstantBitratePolicy : public netgym::Policy {
 public:
  explicit ConstantBitratePolicy(int bitrate_index);
  int act(const netgym::Observation& obs, netgym::Rng& rng) override;
  std::unique_ptr<netgym::Policy> clone() const override {
    return std::make_unique<ConstantBitratePolicy>(*this);
  }

 private:
  int bitrate_index_;
};

}  // namespace abr
