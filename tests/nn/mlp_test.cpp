#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "rl/policy.hpp"

namespace {

using netgym::Rng;
using nn::Activation;
using nn::Mlp;

TEST(Mlp, ValidatesConstruction) {
  Rng rng(1);
  EXPECT_THROW(Mlp({5}, Activation::kTanh, rng), std::invalid_argument);
  EXPECT_THROW(Mlp({5, 0, 2}, Activation::kTanh, rng), std::invalid_argument);
}

TEST(Mlp, ForwardShapeAndDeterminism) {
  Rng rng(1);
  const Mlp net({4, 8, 3}, Activation::kTanh, rng);
  const std::vector<double> x{0.1, -0.2, 0.3, 0.4};
  Mlp::Workspace ws;
  const std::vector<double> y1 = net.forward_batch(x.data(), 1, ws);
  const std::vector<double> y2 = net.forward_batch(x.data(), 1, ws);
  ASSERT_EQ(y1.size(), 3u);
  EXPECT_EQ(y1, y2);
}

TEST(Mlp, ForwardRejectsWrongInputSize) {
  // A packed batch carries no width to check, so the observation-taking
  // policy entry points check it; an empty batch is rejected by the net.
  Rng rng(1);
  const Mlp net({4, 3}, Activation::kTanh, rng);
  Mlp::Workspace ws;
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(net.forward_batch(x.data(), 0, ws), std::invalid_argument);
  rl::MlpPolicy policy(4, 3, {}, rng);
  EXPECT_THROW(policy.logits({1.0}), std::invalid_argument);
  EXPECT_THROW(policy.act({1.0}, rng), std::invalid_argument);
}

TEST(Mlp, BackwardRequiresForward) {
  Rng rng(1);
  Mlp net({2, 2}, Activation::kTanh, rng);
  Mlp::Workspace ws;
  const std::vector<double> g{1.0, 0.0};
  EXPECT_THROW(net.backward_batch(g.data(), 1, ws), std::logic_error);
}

TEST(Mlp, SetParamsRoundTripsAndValidates) {
  Rng rng(1);
  Mlp a({3, 5, 2}, Activation::kTanh, rng);
  Mlp b({3, 5, 2}, Activation::kTanh, rng);
  b.set_params(a.params());
  const std::vector<double> x{0.5, -1.0, 2.0};
  Mlp::Workspace wa, wb;
  EXPECT_EQ(a.forward_batch(x.data(), 1, wa), b.forward_batch(x.data(), 1, wb));
  EXPECT_THROW(a.set_params({1.0}), std::invalid_argument);
}

/// Finite-difference gradient check: the core correctness property of the
/// whole training stack. Loss = sum_j c_j * y_j for random c.
class MlpGradientCheck
    : public ::testing::TestWithParam<std::tuple<std::vector<int>, int>> {};

TEST_P(MlpGradientCheck, MatchesFiniteDifferences) {
  const auto& [sizes, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const Activation act = seed % 2 == 0 ? Activation::kTanh
                                       : Activation::kRelu;
  Mlp net(sizes, act, rng);
  std::vector<double> x(static_cast<std::size_t>(sizes.front()));
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> c(static_cast<std::size_t>(sizes.back()));
  for (double& v : c) v = rng.uniform(-1.0, 1.0);

  Mlp::Workspace ws;
  auto loss = [&]() {
    const std::vector<double>& y = net.forward_batch(x.data(), 1, ws);
    double acc = 0.0;
    for (std::size_t j = 0; j < y.size(); ++j) acc += c[j] * y[j];
    return acc;
  };

  net.zero_grad();
  loss();  // populate the forward cache
  net.backward_batch(c.data(), 1, ws);
  const std::vector<double> analytic = net.grads();

  const double eps = 1e-6;
  std::vector<double>& params = net.params();
  // Spot-check a spread of parameters (checking all ~1000 is wasteful).
  for (std::size_t i = 0; i < params.size();
       i += std::max<std::size_t>(params.size() / 37, 1)) {
    const double original = params[i];
    params[i] = original + eps;
    const double up = loss();
    params[i] = original - eps;
    const double down = loss();
    params[i] = original;
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, 1e-4 * std::max(1.0, std::abs(numeric)))
        << "param index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpGradientCheck,
    ::testing::Values(
        std::make_tuple(std::vector<int>{3, 4, 2}, 0),
        std::make_tuple(std::vector<int>{3, 4, 2}, 1),
        std::make_tuple(std::vector<int>{5, 8, 8, 3}, 2),
        std::make_tuple(std::vector<int>{5, 8, 8, 3}, 3),
        std::make_tuple(std::vector<int>{1, 16, 1}, 4),
        std::make_tuple(std::vector<int>{10, 32, 32, 6}, 6)));

TEST(Mlp, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng(3);
  Mlp net({2, 3, 1}, Activation::kTanh, rng);
  const std::vector<double> x{0.3, -0.7};
  const double g = 1.0;
  Mlp::Workspace ws;
  net.zero_grad();
  net.forward_batch(x.data(), 1, ws);
  net.backward_batch(&g, 1, ws);
  const std::vector<double> once = net.grads();
  net.forward_batch(x.data(), 1, ws);
  net.backward_batch(&g, 1, ws);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(net.grads()[i], 2 * once[i], 1e-12);
  }
  net.zero_grad();
  for (double g : net.grads()) EXPECT_EQ(g, 0.0);
}

TEST(Softmax, NormalizesAndOrders) {
  const auto p = nn::softmax({1.0, 2.0, 3.0});
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
}

TEST(Softmax, StableUnderLargeLogits) {
  const auto p = nn::softmax({1000.0, 1000.0});
  EXPECT_NEAR(p[0], 0.5, 1e-12);
  EXPECT_NEAR(p[1], 0.5, 1e-12);
}

TEST(Softmax, RejectsEmptyInput) {
  EXPECT_THROW(nn::softmax({}), std::invalid_argument);
}

TEST(LogSoftmax, MatchesLogOfSoftmax) {
  const std::vector<double> z{0.5, -1.0, 2.0};
  const auto p = nn::softmax(z);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(nn::log_softmax_at(z, i), std::log(p[static_cast<std::size_t>(i)]), 1e-12);
  }
  EXPECT_THROW(nn::log_softmax_at(z, 3), std::invalid_argument);
  EXPECT_THROW(nn::log_softmax_at(z, -1), std::invalid_argument);
}

}  // namespace
