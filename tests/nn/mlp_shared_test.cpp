// Pins that one network is safe to share across threads: forward_batch and
// act_batch are const and write only the caller's workspace, so threads
// running one nn::Mlp / rl::MlpPolicy at once, each with its own workspace,
// get exactly the bits of a serial pass. This suite carries the
// "concurrency" ctest label (repeated under load in CI) and is part of the
// TSan run.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "netgym/rng.hpp"
#include "nn/mlp.hpp"
#include "rl/policy.hpp"

namespace {

constexpr int kThreads = 4;
constexpr int kRows = 24;     // rows per thread
constexpr int kRounds = 25;   // passes per thread, to overlap them
constexpr int kObs = 6;
constexpr int kOut = 5;

std::vector<double> packed_rows(int n, int width) {
  std::vector<double> x(static_cast<std::size_t>(n) * width);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.5 * std::sin(0.29 * static_cast<double>(i + 1));
  }
  return x;
}

/// Runs `body(t)` on kThreads threads at once and joins them.
template <typename Body>
void run_threads(const Body& body) {
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
  for (std::thread& th : threads) th.join();
}

TEST(MlpShared, ConcurrentForwardBatchMatchesSerialPass) {
  netgym::Rng rng(17);
  const nn::Mlp net({kObs, 32, 32, kOut}, nn::Activation::kTanh, rng);
  const std::vector<double> x = packed_rows(kThreads * kRows, kObs);
  const auto block = [&](int t) {
    return x.data() + static_cast<std::size_t>(t) * kRows * kObs;
  };

  // Serial reference: each thread's block as one batch, then row by row.
  std::vector<std::vector<double>> want_batch(kThreads), want_rows(kThreads);
  nn::Mlp::Workspace serial;
  for (int t = 0; t < kThreads; ++t) {
    want_batch[t] = net.forward_batch(block(t), kRows, serial);
    for (int r = 0; r < kRows; ++r) {
      const std::vector<double>& y =
          net.forward_batch(block(t) + r * kObs, 1, serial);
      want_rows[t].insert(want_rows[t].end(), y.begin(), y.end());
    }
  }

  std::vector<std::vector<double>> got_batch(kThreads), got_rows(kThreads);
  run_threads([&](int t) {
    nn::Mlp::Workspace ws;
    for (int round = 0; round < kRounds; ++round) {
      got_batch[t] = net.forward_batch(block(t), kRows, ws);
      got_rows[t].clear();
      for (int r = 0; r < kRows; ++r) {
        const std::vector<double>& y =
            net.forward_batch(block(t) + r * kObs, 1, ws);
        got_rows[t].insert(got_rows[t].end(), y.begin(), y.end());
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got_batch[t], want_batch[t]) << "thread " << t;
    EXPECT_EQ(got_rows[t], want_rows[t]) << "thread " << t;
  }
}

TEST(MlpShared, ConcurrentGreedyActBatchMatchesSerialPass) {
  netgym::Rng init(29);
  rl::MlpPolicy built(kObs, kOut, {16, 16}, init);
  built.set_greedy(true);
  const rl::MlpPolicy& policy = built;
  const std::vector<double> x = packed_rows(kThreads * kRows, kObs);

  std::vector<int> want(static_cast<std::size_t>(kThreads) * kRows);
  {
    rl::MlpPolicy::Workspace ws;
    netgym::Rng unused(0);
    const std::vector<netgym::Rng*> rngs(want.size(), &unused);
    policy.act_batch(x.data(), want.size(), rngs.data(), want.data(), ws);
  }

  std::vector<int> got(want.size(), -1);
  run_threads([&](int t) {
    rl::MlpPolicy::Workspace ws;
    netgym::Rng unused(static_cast<std::uint64_t>(t));  // greedy: no draws
    const std::vector<netgym::Rng*> rngs(kRows, &unused);
    const std::size_t first = static_cast<std::size_t>(t) * kRows;
    for (int round = 0; round < kRounds; ++round) {
      policy.act_batch(x.data() + first * kObs, kRows, rngs.data(),
                       got.data() + first, ws);
    }
  });
  EXPECT_EQ(got, want);
}

}  // namespace
