// Pins the two properties the checkpoint/resume invariant rests on beyond
// serialization itself: cloned policies are fully independent of their
// source (the parallel rollout engine hands each worker a clone), and
// Rng::fork produces reproducible, mutually independent streams (so the
// fork schedule -- not thread timing -- determines every random draw).

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "netgym/rng.hpp"
#include "rl/policy.hpp"

namespace {

rl::MlpPolicy make_policy(std::uint64_t seed) {
  netgym::Rng rng(seed);
  return rl::MlpPolicy(4, 3, {8, 8}, rng);
}

netgym::Observation make_obs(double x) {
  return netgym::Observation{x, -x, 0.5 * x, 1.0};
}

TEST(PolicyClone, CloneActsIdenticallyGivenTheSameStream) {
  rl::MlpPolicy original = make_policy(5);
  auto clone = original.clone();
  netgym::Rng rng_a(17);
  netgym::Rng rng_b(17);
  for (int i = 0; i < 50; ++i) {
    const netgym::Observation obs = make_obs(0.1 * i);
    EXPECT_EQ(clone->act(obs, rng_b), original.act(obs, rng_a));
  }
}

TEST(PolicyClone, CloneIsIndependentOfTheOriginal) {
  rl::MlpPolicy original = make_policy(5);
  const std::vector<double> original_params = original.snapshot();

  auto clone_base = original.clone();
  auto* clone = dynamic_cast<rl::MlpPolicy*>(clone_base.get());
  ASSERT_NE(clone, nullptr);

  // Mutating the clone's network must not leak back into the original.
  std::vector<double> mutated = clone->snapshot();
  for (double& p : mutated) p += 1.0;
  clone->restore(mutated);
  EXPECT_EQ(original.snapshot(), original_params);

  // Acting with the clone (which writes its own workspace) must not disturb
  // the original's outputs either.
  netgym::Rng rng(3);
  const std::vector<double> before = original.logits(make_obs(0.25));
  clone->act(make_obs(-0.75), rng);
  EXPECT_EQ(original.logits(make_obs(0.25)), before);
}

TEST(PolicyClone, CloneCopiesTheGreedyFlag) {
  rl::MlpPolicy original = make_policy(5);
  original.set_greedy(true);
  auto clone = original.clone();
  auto* typed = dynamic_cast<rl::MlpPolicy*>(clone.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_TRUE(typed->greedy());

  // Greedy clones act deterministically without touching the RNG stream.
  netgym::Rng rng(9);
  const auto r0 = rng.engine()();
  netgym::Rng replay(9);
  typed->act(make_obs(0.5), replay);
  EXPECT_EQ(replay.engine()(), r0);
}

TEST(RngFork, ForkSequenceIsReproducibleFromTheSeed) {
  netgym::Rng a(123);
  netgym::Rng b(123);
  for (int round = 0; round < 4; ++round) {
    netgym::Rng child_a = a.fork();
    netgym::Rng child_b = b.fork();
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(child_a.engine()(), child_b.engine()());
    }
  }
}

TEST(RngFork, ForkedStreamsAreIndependentOfLaterParentDraws) {
  // The determinism contract (DESIGN.md "Threading model"): all streams are
  // forked serially *before* any work starts, after which drawing from one
  // stream never changes another. Record the child streams of a reference
  // parent, then interleave parent draws and check the children still
  // produce the exact same values.
  netgym::Rng reference(77);
  std::vector<std::vector<std::uint64_t>> expected;
  for (int k = 0; k < 3; ++k) {
    netgym::Rng child = reference.fork();
    std::vector<std::uint64_t> draws;
    for (int i = 0; i < 8; ++i) draws.push_back(child.engine()());
    expected.push_back(std::move(draws));
  }

  netgym::Rng parent(77);
  std::vector<netgym::Rng> children;
  for (int k = 0; k < 3; ++k) children.push_back(parent.fork());
  for (int i = 0; i < 100; ++i) parent.uniform(0, 1);  // later parent use
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(children[k].engine()(), expected[k][i]);
    }
  }
}

TEST(RngFork, SiblingStreamsDiffer) {
  netgym::Rng parent(42);
  netgym::Rng first = parent.fork();
  netgym::Rng second = parent.fork();
  int equal = 0;
  for (int i = 0; i < 16; ++i) {
    equal += first.engine()() == second.engine()() ? 1 : 0;
  }
  EXPECT_LT(equal, 16);
}

TEST(RngFork, EngineMatchesTheStandardMersenneTwister) {
  // netgym::Rng is a thin wrapper over std::mt19937_64, whose raw outputs
  // are pinned by the C++ standard -- this is what makes golden RNG
  // checkpoints portable across standard libraries.
  for (std::uint64_t seed : {0ull, 1ull, 5489ull, 0xdeadbeefull}) {
    netgym::Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(rng.engine()(), reference());
    }
  }
}

}  // namespace
