// Cross-cutting properties that span modules: surrogate-model behaviour
// under growing evidence, planner lookahead value, trace wrap-around, and
// numeric robustness of the optimizer stack.

#include <gtest/gtest.h>

#include <cmath>

#include "abr/baselines.hpp"
#include "abr/env.hpp"
#include "bo/search.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"

namespace {

using netgym::Rng;

TEST(GpContraction, PosteriorVarianceShrinksWithEvidence) {
  // More observations near the probe tighten the posterior. Targets
  // alternate +-1 so the internal target standardization stays roughly
  // constant and does not mask the contraction (predict() reports variance
  // in original units, rescaled by the fitted target spread).
  bo::GaussianProcess gp;
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  const std::vector<double> probe{0.5};
  double first_var = 0.0, last_var = 0.0;
  for (int n = 1; n <= 8; ++n) {
    xs.push_back({0.5 + 0.05 * (n % 2 == 0 ? n : -n) / 8.0});
    ys.push_back(n % 2 == 0 ? 1.0 : -1.0);
    gp.fit(xs, ys);
    const double var = gp.predict(probe).variance;
    if (n == 2) first_var = var;
    if (n >= 3) {
      EXPECT_LE(var, last_var * 1.15 + 1e-9) << "after " << n << " points";
    }
    last_var = var;
  }
  EXPECT_LT(last_var, 0.5 * first_var);
}

TEST(Maximizer, BestValueIsMonotoneNonDecreasing) {
  bo::BayesianOptimizer opt(2, 5);
  Rng rng(4);
  double last = -1e300;
  for (int i = 0; i < 25; ++i) {
    const auto x = opt.propose();
    opt.update(x, rng.uniform(-1.0, 1.0));
    EXPECT_GE(opt.best_value(), last);
    last = opt.best_value();
  }
}

TEST(AbrEnv, TraceWrapsWhenVideoOutlastsIt) {
  // A 30 s trace under a 120 s video: downloads beyond the trace span must
  // keep working (the trace wraps), and every chunk must download.
  netgym::Trace t;
  for (double s = 0.0; s <= 30.0; s += 1.0) {
    t.timestamps_s.push_back(s + 1e-4);
    t.bandwidth_mbps.push_back(s < 15 ? 1.0 : 4.0);
  }
  abr::AbrEnvConfig cfg;
  cfg.video_length_s = 120.0;
  abr::AbrEnv env(cfg, t, 1);
  env.reset();
  int steps = 0;
  bool done = false;
  while (!done) {
    done = env.step(1).done;
    ++steps;
  }
  EXPECT_EQ(steps, env.video().num_chunks());
  EXPECT_GT(env.clock_s(), 30.0);  // the session really outlasted the trace
}

TEST(Mpc, LongerHorizonDoesNotHurtOnAverage) {
  // Aggregate over several environments: 5-chunk lookahead should at least
  // match 1-chunk lookahead (it can see bitrate-switch costs coming).
  double short_total = 0.0, long_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    abr::AbrEnvConfig cfg;
    cfg.max_bw_mbps = 4.0;
    cfg.bw_min_ratio = 0.3;
    cfg.video_length_s = 80.0;
    Rng rng(seed);
    auto env1 = abr::make_abr_env(cfg, rng);
    Rng rng2(seed);
    auto env5 = abr::make_abr_env(cfg, rng2);
    abr::RobustMpcPolicy mpc1(1);
    abr::RobustMpcPolicy mpc5(5);
    Rng e1(1), e5(1);
    short_total += netgym::run_episode(*env1, mpc1, e1).total_reward;
    long_total += netgym::run_episode(*env5, mpc5, e5).total_reward;
  }
  EXPECT_GE(long_total, short_total - 1.0);
}

TEST(Adam, ZeroGradientsAreANoOpAndStayFinite) {
  nn::Adam opt(4);
  std::vector<double> params{1.0, -2.0, 3.0, 0.0};
  const std::vector<double> before = params;
  for (int i = 0; i < 50; ++i) opt.step(params, {0.0, 0.0, 0.0, 0.0});
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(std::isfinite(params[i]));
    EXPECT_NEAR(params[i], before[i], 1e-9);
  }
}

TEST(Mlp, HandlesExtremeInputsWithoutNaNs) {
  Rng rng(1);
  nn::Mlp net({4, 16, 3}, nn::Activation::kTanh, rng);
  const std::vector<double> extreme{1e6, -1e6, 0.0, 1e-12};
  nn::Mlp::Workspace ws;
  const std::vector<double>& out = net.forward_batch(extreme.data(), 1, ws);
  for (double v : out) EXPECT_TRUE(std::isfinite(v));
  net.zero_grad();
  const std::vector<double> g{1.0, -1.0, 0.5};
  net.backward_batch(g.data(), 1, ws);
  for (double g : net.grads()) EXPECT_TRUE(std::isfinite(g));
}

TEST(Softmax, ExtremeLogitsRemainAProbability) {
  const auto p = nn::softmax({-1e9, 0.0, 1e9});
  double total = 0.0;
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    EXPECT_TRUE(std::isfinite(v));
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(p[2], 1.0, 1e-9);
}

}  // namespace
