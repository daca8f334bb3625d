// Pins the evaluation helpers bit for bit on cloneable non-MLP policies that
// draw from the RNG, at 1 and 4 threads. BaselineGapPin covers the MLP
// lockstep path; these cover the per-item path every other policy takes,
// where a reordered draw (RL episode, reference episode, env setup) moves
// the bits. Like the fleet digest fixtures, the values are regenerated only
// deliberately, with the change that moves them declared.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "genet/adapter.hpp"
#include "lb/baselines.hpp"
#include "netgym/parallel.hpp"
#include "traces/tracesets.hpp"

namespace {

using genet::AbrAdapter;
using genet::LbAdapter;
using netgym::Rng;

const std::vector<int> kThreadCounts{1, 4};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Restores the global pool to its default size when a test exits.
struct PoolGuard {
  ~PoolGuard() { netgym::set_num_threads(0); }
};

/// Uniformly random action: cloneable, and every act() draws from the
/// item's stream.
class UniformPolicy : public netgym::Policy {
 public:
  explicit UniformPolicy(int actions) : actions_(actions) {}
  int act(const netgym::Observation&, Rng& rng) override {
    return rng.uniform_int(0, actions_ - 1);
  }
  std::unique_ptr<netgym::Policy> clone() const override {
    return std::make_unique<UniformPolicy>(*this);
  }

 private:
  int actions_;
};

TEST(EvalPin, TestOnDistributionMatchesPinnedBits) {
  PoolGuard guard;
  LbAdapter adapter(1);
  lb::PowerOfTwoPolicy policy;
  const netgym::ConfigDistribution dist(adapter.space());
  for (int threads : kThreadCounts) {
    netgym::set_num_threads(threads);
    Rng rng(11);
    const double reward =
        genet::test_on_distribution(adapter, policy, dist, 6, rng);
    EXPECT_EQ(reward, -0x1.f4872db521954p-2)
        << threads << " threads: " << hex(reward);
  }
}

TEST(EvalPin, TestPerTraceMatchesPinnedBits) {
  PoolGuard guard;
  AbrAdapter adapter(3);
  UniformPolicy policy(adapter.action_count());
  std::vector<netgym::Trace> corpus;
  for (int i = 0; i < 3; ++i) {
    corpus.push_back(traces::make_trace(traces::TraceSet::kNorway, true, i));
  }
  const std::vector<double> pinned = {
      0x1.2ff77627ecb08p-3, 0x1.5679008bf0a6ep-4, -0x1.9eb288cc178dfp+3};
  for (int threads : kThreadCounts) {
    netgym::set_num_threads(threads);
    Rng rng(12);
    const std::vector<double> rewards =
        genet::test_per_trace(adapter, policy, corpus, rng);
    std::string got;
    for (double r : rewards) got += hex(r) + " ";
    EXPECT_EQ(rewards, pinned) << threads << " threads: " << got;
  }
}

TEST(EvalPin, GapToBaselineMatchesPinnedBits) {
  // Both sides draw: the RL side through PowerOfTwoPolicy, the baseline
  // through "random".
  PoolGuard guard;
  LbAdapter adapter(1);
  lb::PowerOfTwoPolicy policy;
  const netgym::Config config = adapter.space().midpoint();
  for (int threads : kThreadCounts) {
    netgym::set_num_threads(threads);
    Rng rng(13);
    const double gap =
        genet::gap_to_baseline(adapter, policy, "random", config, 6, rng);
    EXPECT_EQ(gap, -0x1.d3a07be77ae0dp-4)
        << threads << " threads: " << hex(gap);
  }
}

TEST(EvalPin, GapToOptimumMatchesPinnedBits) {
  PoolGuard guard;
  LbAdapter adapter(1);
  lb::RandomLbPolicy policy;
  const netgym::Config config = adapter.space().midpoint();
  for (int threads : kThreadCounts) {
    netgym::set_num_threads(threads);
    Rng rng(14);
    const double gap =
        genet::gap_to_optimum(adapter, policy, config, 4, rng);
    EXPECT_EQ(gap, 0x1.6d50c60a00077p-4)
        << threads << " threads: " << hex(gap);
  }
}

TEST(EvalPin, GapBetweenMatchesPinnedBits) {
  // Both episodes draw from the item's stream, so the value fixes the order
  // in which gap_between runs them.
  PoolGuard guard;
  LbAdapter adapter(1);
  lb::PowerOfTwoPolicy policy;
  lb::RandomLbPolicy reference;
  const netgym::Config config = adapter.space().midpoint();
  for (int threads : kThreadCounts) {
    netgym::set_num_threads(threads);
    Rng rng(15);
    const double gap =
        genet::gap_between(adapter, policy, reference, config, 6, rng);
    EXPECT_EQ(gap, -0x1.9a4f05f30b9a8p-4)
        << threads << " threads: " << hex(gap);
  }
}

}  // namespace
