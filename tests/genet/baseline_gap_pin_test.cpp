// Pins the ABR curriculum signal bit for bit: gap_to_baseline against the
// MPC-planning baselines and one GenetScheme::select over them. The values
// were computed with the exhaustive 6^5 MPC planner and must survive any
// rework of the planner unchanged. Like the fleet digest fixtures, they are
// regenerated only deliberately, with the change that moves them declared.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "genet/adapter.hpp"
#include "genet/curriculum.hpp"
#include "nn/gemm.hpp"
#include "rl/policy.hpp"

namespace {

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Strict math for the test's lifetime: only the strict kernels promise
/// bit-identical forwards (see nn::MathMode).
class BaselineGapPin : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = nn::math_mode();
    nn::set_math_mode(nn::MathMode::kStrict);
    adapter_ = genet::make_adapter("abr", 3);
    netgym::Rng prng(4242);
    policy_ = std::make_unique<rl::MlpPolicy>(
        adapter_->obs_size(), adapter_->action_count(),
        std::vector<int>{16, 16}, prng);
    policy_->set_greedy(true);
  }
  void TearDown() override { nn::set_math_mode(saved_); }

  nn::MathMode saved_ = nn::MathMode::kStrict;
  std::unique_ptr<genet::TaskAdapter> adapter_;
  std::unique_ptr<rl::MlpPolicy> policy_;
};

TEST_F(BaselineGapPin, GapToMpcAndOboeMatchPinnedBits) {
  const netgym::Config config = adapter_->space().midpoint();
  netgym::Rng mpc_rng(2024);
  const double mpc =
      genet::gap_to_baseline(*adapter_, *policy_, "mpc", config, 10, mpc_rng);
  netgym::Rng oboe_rng(2024);
  const double oboe = genet::gap_to_baseline(*adapter_, *policy_, "oboe",
                                             config, 10, oboe_rng);
  EXPECT_EQ(mpc, 0x1.e5c388390dac6p+1) << hex(mpc);
  EXPECT_EQ(oboe, 0x1.e89c9ec038ae5p+1) << hex(oboe);
}

TEST_F(BaselineGapPin, GenetSelectOverMpcMatchesPinnedBits) {
  genet::SearchOptions options;  // the CLI's 15 BO trials x 10 envs
  genet::GenetScheme scheme("mpc", options);
  netgym::Rng rng(7);
  const auto selection = scheme.select(*adapter_, *policy_, 0, rng);
  std::string config;
  for (double v : selection.config.values) config += hex(v) + " ";
  EXPECT_EQ(selection.score, 0x1.e8fda47883bedp+1) << hex(selection.score);
  const std::vector<double> pinned = {
      0x1.ee213120485cbp+5, 0x1.1a76ca77c115ap+2, 0x1.751c4bcca542bp+6,
      0x1.a13825637075ap+7, 0x1.7a1c21ab481f8p+2, 0x1.2a43ba894879p+7};
  EXPECT_EQ(selection.config.values, pinned) << config;
}

}  // namespace
