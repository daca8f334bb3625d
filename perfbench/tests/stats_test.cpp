#include "stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace perfbench {
namespace {

TEST(PoissonSchedule, HitsItsMeanRate) {
  for (const double rate : {500.0, 12000.0}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const double duration = 200000.0 / rate;  // 200k expected arrivals
      const std::vector<double> at = poisson_schedule(rate, duration, seed);
      const double achieved = static_cast<double>(at.size()) / duration;
      // sd of the count is sqrt(2e5) ~ 0.22%; allow 1%.
      EXPECT_NEAR(achieved / rate, 1.0, 0.01) << rate << " seed " << seed;
      // Exponential gaps: the mean gap is 1/rate and the sd equals the mean.
      std::vector<double> gaps(at.size());
      std::adjacent_difference(at.begin(), at.end(), gaps.begin());
      const double mean = std::accumulate(gaps.begin(), gaps.end(), 0.0) / gaps.size();
      double var = 0.0;
      for (double g : gaps) var += (g - mean) * (g - mean);
      var /= static_cast<double>(gaps.size());
      EXPECT_NEAR(mean * rate, 1.0, 0.01);
      EXPECT_NEAR(std::sqrt(var) * rate, 1.0, 0.02);
    }
  }
}

TEST(PoissonSchedule, SortedInsideTheWindowAndSeeded) {
  const std::vector<double> a = poisson_schedule(2000.0, 3.0, 7);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  ASSERT_FALSE(a.empty());
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 3.0);
  EXPECT_EQ(a, poisson_schedule(2000.0, 3.0, 7));
  EXPECT_NE(a, poisson_schedule(2000.0, 3.0, 8));
  EXPECT_THROW(poisson_schedule(0.0, 1.0, 1), std::invalid_argument);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  EXPECT_EQ(percentile_sorted(v, 50.0), 50.0);
  EXPECT_EQ(percentile_sorted(v, 99.0), 99.0);
  EXPECT_EQ(percentile_sorted(v, 99.9), 100.0);
  EXPECT_EQ(percentile_sorted({}, 50.0), 0.0);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(100000), 99.99);
}

TEST(Percentile, SummaryReportsTheSupportedTail) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());  // summarize sorts its own copy
  const LatencySummary s = summarize(v);
  EXPECT_EQ(s.count, 1000);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_TRUE(s.p99_supported);
  EXPECT_DOUBLE_EQ(s.mean, 500.5);
  v.resize(500);
  EXPECT_FALSE(summarize(v).p99_supported);
  EXPECT_EQ(summarize(v).tail_pct, 90.0);
}

TEST(Partition, ResidualIsTotalMinusParts) {
  const Partition p = partition(10.0, {{"rl", 3.0}, {"genet", 4.5}});
  EXPECT_DOUBLE_EQ(p.unattributed, 2.5);
  EXPECT_FALSE(p.overcommitted);
  double sum = p.unattributed;
  for (const auto& part : p.parts) sum += part.second;
  EXPECT_DOUBLE_EQ(sum, p.total);
  ASSERT_EQ(p.parts.size(), 2u);
  EXPECT_EQ(p.parts[0].first, "rl");
}

TEST(Partition, OverlappingPartsAreFlaggedNotHidden) {
  const Partition p = partition(1.0, {{"a", 0.7}, {"b", 0.5}});
  EXPECT_DOUBLE_EQ(p.unattributed, 1.0 - 1.2);
  EXPECT_TRUE(p.overcommitted);
  // Rounding-level excess is not an overcommit.
  EXPECT_FALSE(partition(1.0, {{"a", 1.0 + 1e-12}}).overcommitted);
  EXPECT_DOUBLE_EQ(partition(2.0, {}).unattributed, 2.0);
}

TEST(Backlog, SteadyQueueIsNotGrowing) {
  std::vector<double> v;
  for (int i = 0; i < 400; ++i) v.push_back(5.0 + (i * 37 % 11));  // bounded noise
  EXPECT_FALSE(backlog_growing(v, 16.0));
}

TEST(Backlog, RampIsGrowing) {
  std::vector<double> v;
  for (int i = 0; i < 400; ++i) v.push_back(2.0 + 0.5 * i);
  EXPECT_TRUE(backlog_growing(v, 16.0));
  EXPECT_FALSE(backlog_growing({1, 2, 3, 400}, 16.0));  // too few samples
}

TierOutcome tier(const char* name, double offered, double p99) {
  TierOutcome t;
  t.name = name;
  t.offered_rps = offered;
  t.achieved_rps = offered * 0.999;
  t.p99_ms = p99;
  t.p99_supported = true;
  return t;
}

TEST(Capacity, HighestTierMeetingTheLimit) {
  const std::vector<TierOutcome> tiers = {tier("low", 1000, 0.5), tier("mid", 5000, 0.8),
                                          tier("high", 9000, 1.5)};
  EXPECT_DOUBLE_EQ(capacity_rps(tiers, 2.0), 9000 * 0.999);
  EXPECT_DOUBLE_EQ(capacity_rps(tiers, 1.0), 5000 * 0.999);
  EXPECT_EQ(capacity_rps(tiers, 0.1), 0.0);
}

TEST(Capacity, RejectsATierWithAGrowingBacklog) {
  std::vector<TierOutcome> tiers = {tier("low", 1000, 0.5), tier("mid", 5000, 0.8),
                                    tier("high", 9000, 0.9)};
  tiers[2].backlog_growing = true;  // p99 fine, but the queue is running away
  EXPECT_FALSE(tier_meets_limit(tiers[2], 2.0));
  EXPECT_DOUBLE_EQ(capacity_rps(tiers, 2.0), 5000 * 0.999);
}

TEST(Capacity, RejectsFailuresLateGeneratorsAndThinSamples) {
  std::vector<TierOutcome> tiers = {tier("low", 1000, 0.5), tier("mid", 5000, 0.8),
                                    tier("high", 9000, 0.9)};
  tiers[2].failed = 1;
  tiers[1].generator_valid = false;
  EXPECT_DOUBLE_EQ(capacity_rps(tiers, 2.0), 1000 * 0.999);
  tiers[0].p99_supported = false;
  EXPECT_EQ(capacity_rps(tiers, 2.0), 0.0);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
