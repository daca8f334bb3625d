#include "traces/tracesets.hpp"

#include <gtest/gtest.h>

#include "netgym/stats.hpp"

namespace {

using traces::TraceSet;

TEST(TraceSets, InfoIsConsistent) {
  for (TraceSet set : traces::all_sets()) {
    const auto& meta = traces::info(set);
    EXPECT_FALSE(meta.name.empty());
    EXPECT_GT(meta.train_count, 0);
    EXPECT_GT(meta.test_count, 0);
    EXPECT_GT(meta.duration_s, 0.0);
  }
  EXPECT_EQ(traces::info(TraceSet::kFcc).task, "abr");
  EXPECT_EQ(traces::info(TraceSet::kNorway).task, "abr");
  EXPECT_EQ(traces::info(TraceSet::kCellular).task, "cc");
  EXPECT_EQ(traces::info(TraceSet::kEthernet).task, "cc");
}

class TraceSetValidity : public ::testing::TestWithParam<TraceSet> {};

TEST_P(TraceSetValidity, AllTracesAreValidAndCoverDuration) {
  const TraceSet set = GetParam();
  const auto& meta = traces::info(set);
  for (bool test_split : {false, true}) {
    const auto corpus = traces::make_corpus(set, test_split);
    EXPECT_EQ(corpus.size(), static_cast<std::size_t>(
                                 test_split ? meta.test_count
                                            : meta.train_count));
    for (const auto& trace : corpus) {
      ASSERT_NO_THROW(trace.validate());
      EXPECT_GE(trace.duration_s(), meta.duration_s - 1.0);
      EXPECT_GT(trace.min_bandwidth(), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSets, TraceSetValidity,
                         ::testing::ValuesIn(traces::all_sets()));

TEST(TraceSets, DeterministicAndDistinctPerIndex) {
  const auto a = traces::make_trace(TraceSet::kFcc, false, 0);
  const auto b = traces::make_trace(TraceSet::kFcc, false, 0);
  const auto c = traces::make_trace(TraceSet::kFcc, false, 1);
  const auto d = traces::make_trace(TraceSet::kFcc, true, 0);
  EXPECT_EQ(a.bandwidth_mbps, b.bandwidth_mbps);
  EXPECT_NE(a.bandwidth_mbps, c.bandwidth_mbps);
  EXPECT_NE(a.bandwidth_mbps, d.bandwidth_mbps);
}

TEST(TraceSets, IndexOutOfSplitThrows) {
  EXPECT_THROW(traces::make_trace(TraceSet::kFcc, false, -1),
               std::out_of_range);
  EXPECT_THROW(
      traces::make_trace(TraceSet::kFcc, false,
                         traces::info(TraceSet::kFcc).train_count),
      std::out_of_range);
}

/// The whole point of the stand-in corpora: the sets must be statistically
/// distinct so cross-set tests exhibit distribution shift (Fig. 3, Fig. 13).
TEST(TraceSets, SignaturesAreDistinct) {
  auto mean_of_set = [](TraceSet set) {
    std::vector<double> means;
    for (const auto& trace : traces::make_corpus(set, false)) {
      means.push_back(trace.mean_bandwidth());
    }
    return netgym::mean(means);
  };
  auto roughness_of_set = [](TraceSet set) {
    std::vector<double> values;
    for (const auto& trace : traces::make_corpus(set, false)) {
      values.push_back(trace.non_smoothness() / trace.mean_bandwidth());
    }
    return netgym::mean(values);
  };

  // Ethernet is much faster and smoother than Cellular.
  EXPECT_GT(mean_of_set(TraceSet::kEthernet),
            3.0 * mean_of_set(TraceSet::kCellular));
  EXPECT_LT(roughness_of_set(TraceSet::kEthernet),
            0.5 * roughness_of_set(TraceSet::kCellular));
  // Norway (3G) is slower and rougher than FCC broadband.
  EXPECT_LT(mean_of_set(TraceSet::kNorway), mean_of_set(TraceSet::kFcc));
  EXPECT_GT(roughness_of_set(TraceSet::kNorway),
            2.0 * roughness_of_set(TraceSet::kFcc));
}

TEST(TraceSets, TrainAndTestSplitsShareTheDistribution) {
  // In-set train/test means should be close (same generator, same family),
  // relative to the cross-set differences above.
  for (TraceSet set : traces::all_sets()) {
    std::vector<double> train_means, test_means;
    for (const auto& t : traces::make_corpus(set, false)) {
      train_means.push_back(t.mean_bandwidth());
    }
    for (const auto& t : traces::make_corpus(set, true)) {
      test_means.push_back(t.mean_bandwidth());
    }
    const double train_mean = netgym::mean(train_means);
    const double test_mean = netgym::mean(test_means);
    EXPECT_LT(std::abs(train_mean - test_mean),
              0.5 * std::max(train_mean, test_mean))
        << traces::info(set).name;
  }
}

}  // namespace
