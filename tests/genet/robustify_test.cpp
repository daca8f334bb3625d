// Tests for the Robustify adversarial-bandwidth-generator pipeline (A.6).

#include "genet/robustify.hpp"

#include <gtest/gtest.h>

#include "abr/env.hpp"
#include "genet/curriculum.hpp"

namespace {

using genet::AbrAdversary;
using genet::RobustifyOptions;
using netgym::Rng;

RobustifyOptions tiny_options() {
  RobustifyOptions options;
  options.adversary_iters = 5;
  options.video_length_s = 40.0;  // 10 chunks per adversary episode
  return options;
}

rl::MlpPolicy make_victim(Rng& rng) {
  return rl::MlpPolicy(abr::AbrEnv::kObsSize, abr::kBitrateCount, {16}, rng);
}

TEST(AbrAdversary, ValidatesOptions) {
  Rng rng(1);
  rl::MlpPolicy victim = make_victim(rng);
  RobustifyOptions bad = tiny_options();
  bad.bw_levels = 1;
  EXPECT_THROW(AbrAdversary(victim, bad, 1), std::invalid_argument);
  bad = tiny_options();
  bad.max_bw_mbps = bad.min_bw_mbps;
  EXPECT_THROW(AbrAdversary(victim, bad, 1), std::invalid_argument);
  // The victim acts on ABR observations, so its input width must match.
  rl::MlpPolicy not_abr(abr::AbrEnv::kObsSize + 1, abr::kBitrateCount, {16},
                        rng);
  EXPECT_THROW(AbrAdversary(not_abr, tiny_options(), 1),
               std::invalid_argument);
}

TEST(AbrAdversary, GeneratesValidTracesWithinBandwidthLevels) {
  Rng rng(2);
  rl::MlpPolicy victim = make_victim(rng);
  AbrAdversary adversary(victim, tiny_options(), 3);
  adversary.train();
  Rng gen_rng(5);
  for (int i = 0; i < 3; ++i) {
    const netgym::Trace trace = adversary.generate(gen_rng);
    ASSERT_NO_THROW(trace.validate());
    EXPECT_GE(trace.min_bandwidth(), tiny_options().min_bw_mbps - 1e-9);
    EXPECT_LE(trace.max_bandwidth(), tiny_options().max_bw_mbps + 1e-9);
    // One segment per chunk plus the terminal hold sample.
    EXPECT_GE(trace.size(), 10u);
  }
}

TEST(AbrAdversary, GeneratedTracesAreDiverse) {
  Rng rng(2);
  rl::MlpPolicy victim = make_victim(rng);
  AbrAdversary adversary(victim, tiny_options(), 3);
  adversary.train();
  Rng gen_rng(5);
  const netgym::Trace a = adversary.generate(gen_rng);
  const netgym::Trace b = adversary.generate(gen_rng);
  EXPECT_NE(a.bandwidth_mbps, b.bandwidth_mbps);
}

TEST(AbrAdversary, FindsGenuinelyAdversarialTraces) {
  // Against an untrained victim, the regret-minus-smoothness objective is
  // large and positive (the victim is far from the offline optimum on the
  // generated traces), and stays within the per-chunk reward bounds.
  Rng rng(7);
  rl::MlpPolicy victim = make_victim(rng);
  RobustifyOptions options = tiny_options();
  options.adversary_iters = 20;
  AbrAdversary adversary(victim, options, 11);
  adversary.train();
  EXPECT_GT(adversary.last_objective(), 0.0);
  EXPECT_LT(adversary.last_objective(), 10.0 * 400.0);  // sane magnitude
}

TEST(RobustifyTrain, ProducesARunnablePolicy) {
  RobustifyOptions options = tiny_options();
  options.adversary_iters = 4;
  auto trainer = genet::robustify_train(/*space_id=*/1, /*pretrain=*/5,
                                        /*retrain=*/5, /*alternations=*/1,
                                        options, 9);
  ASSERT_NE(trainer, nullptr);
  genet::AbrAdapter adapter(1);
  trainer->policy().set_greedy(true);
  netgym::ConfigDistribution dist(adapter.space());
  Rng rng(3);
  const double reward = genet::test_on_distribution(
      adapter, trainer->policy(), dist, 5, rng);
  EXPECT_TRUE(std::isfinite(reward));
}

TEST(RobustifyTrain, ValidatesAlternations) {
  EXPECT_THROW(
      genet::robustify_train(1, 2, 2, 0, tiny_options(), 1),
      std::invalid_argument);
}

}  // namespace
