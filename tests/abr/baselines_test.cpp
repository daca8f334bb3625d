#include "abr/baselines.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "abr/env.hpp"
#include "genet/adapter.hpp"

namespace {

using abr::AbrEnv;
using abr::AbrEnvConfig;
using netgym::Observation;
using netgym::Rng;
using netgym::Trace;

// ---------------------------------------------------------------------------
// Reference planner: the exhaustive enumeration abr::mpc_best_first_action
// replaced, copied verbatim. It scores all 6^horizon bitrate sequences.
// ---------------------------------------------------------------------------

using abr::bitrate_kbps;
using abr::bitrate_mbps;
using abr::kBitrateCount;

double buffer_from_obs(const netgym::Observation& obs) {
  return obs[AbrEnv::kObsBuffer] * 30.0;
}

double max_buffer_from_obs(const netgym::Observation& obs) {
  return obs[AbrEnv::kObsMaxBuffer] * 100.0;
}

double chunk_length_from_obs(const netgym::Observation& obs) {
  return obs[AbrEnv::kObsChunkLength] * 10.0;
}

int exhaustive_best_first_action(const netgym::Observation& obs,
                                 double predicted_throughput_mbps,
                                 int horizon) {
  const double throughput = std::max(predicted_throughput_mbps, 1e-3);
  const double chunk_len = std::max(chunk_length_from_obs(obs), 0.1);
  const double capacity = std::max(max_buffer_from_obs(obs), 1.0);
  const double rtt_s = obs[AbrEnv::kObsMinRtt];
  const double start_buffer = buffer_from_obs(obs);
  const int last_bitrate = static_cast<int>(
      std::lround(obs[AbrEnv::kObsLastBitrate] * (kBitrateCount - 1)));

  double best_reward = -1e18;
  int best_first = 0;
  std::vector<int> seq(static_cast<std::size_t>(horizon), 0);
  auto simulate = [&](auto&& self, int depth, double buffer, int last,
                      double reward) -> void {
    if (depth == horizon) {
      if (reward > best_reward) {
        best_reward = reward;
        best_first = seq[0];
      }
      return;
    }
    for (int b = 0; b < kBitrateCount; ++b) {
      seq[static_cast<std::size_t>(depth)] = b;
      const double size_mb =
          depth == 0 ? obs[AbrEnv::kObsNextSizes + b]
                     : bitrate_kbps(b) * 1000.0 * chunk_len / 8e6;
      const double download_s = size_mb * 8.0 / throughput + rtt_s;
      const double rebuffer = std::max(download_s - buffer, 0.0);
      double new_buffer = std::max(buffer - download_s, 0.0) + chunk_len;
      new_buffer = std::min(new_buffer, capacity);
      const double change = std::abs(bitrate_mbps(b) - bitrate_mbps(last));
      const double r = bitrate_mbps(b) - 10.0 * rebuffer - change;
      self(self, depth + 1, new_buffer, b, reward + r);
    }
  };
  simulate(simulate, 0, start_buffer, last_bitrate, 0.0);
  return best_first;
}

constexpr int kMaxTestedHorizon = 6;

/// Counts the (observation, throughput, horizon) cases where the planner and
/// the exhaustive reference pick different first actions; prints the first
/// few.
int count_mismatches(const Observation& obs, double throughput_mbps) {
  int mismatches = 0;
  for (int h = 1; h <= kMaxTestedHorizon; ++h) {
    const int fast = abr::mpc_best_first_action(obs, throughput_mbps, h);
    const int reference = exhaustive_best_first_action(obs, throughput_mbps, h);
    if (fast != reference) {
      ADD_FAILURE() << "horizon " << h << ", throughput " << throughput_mbps
                    << ": planner picked " << fast << ", reference "
                    << reference;
      ++mismatches;
    }
  }
  return mismatches;
}

/// Runs an inner policy and keeps every observation it acts on.
class RecordingPolicy : public netgym::Policy {
 public:
  RecordingPolicy(netgym::Policy& inner, std::vector<Observation>& out)
      : inner_(inner), out_(out) {}
  void begin_episode() override { inner_.begin_episode(); }
  int act(const Observation& obs, Rng& rng) override {
    out_.push_back(obs);
    return inner_.act(obs, rng);
  }

 private:
  netgym::Policy& inner_;
  std::vector<Observation>& out_;
};

/// Harmonic mean of the observation's non-zero throughput history, 1 Mbps
/// when it is empty (RobustMPC's prediction before its error discount).
double harmonic_mean_mbps(const Observation& obs) {
  double inv_sum = 0.0;
  int count = 0;
  for (int i = 0; i < AbrEnv::kThroughputHistory; ++i) {
    const double mbps =
        std::pow(10.0, obs[AbrEnv::kObsThroughputHist + i]) - 1.0;
    if (mbps > 1e-6) {
      inv_sum += 1.0 / mbps;
      ++count;
    }
  }
  return count > 0 ? count / inv_sum : 1.0;
}

Trace constant_trace(double mbps, double duration_s) {
  Trace t;
  for (double s = 0.0; s <= duration_s; s += 1.0) {
    t.timestamps_s.push_back(s + 1e-4);
    t.bandwidth_mbps.push_back(mbps);
  }
  return t;
}

/// Observation with a given buffer level and max-buffer capacity, other
/// fields at plausible defaults.
Observation obs_with_buffer(double buffer_s, double capacity_s,
                            double throughput_mbps = 3.0) {
  Observation obs(AbrEnv::kObsSize, 0.0);
  obs[AbrEnv::kObsBuffer] = buffer_s / 30.0;
  obs[AbrEnv::kObsMaxBuffer] = capacity_s / 100.0;
  obs[AbrEnv::kObsChunkLength] = 0.4;
  obs[AbrEnv::kObsMinRtt] = 0.08;
  obs[AbrEnv::kObsRemaining] = 0.5;
  for (int i = 0; i < AbrEnv::kThroughputHistory; ++i) {
    obs[AbrEnv::kObsThroughputHist + i] = std::log10(1.0 + throughput_mbps);
  }
  for (int b = 0; b < abr::kBitrateCount; ++b) {
    obs[AbrEnv::kObsNextSizes + b] =
        abr::kBitratesKbps[b] * 1000.0 * 4.0 / 8e6;
  }
  return obs;
}

TEST(Bba, LowBufferPicksLowestBitrate) {
  abr::BbaPolicy bba;
  Rng rng(1);
  EXPECT_EQ(bba.act(obs_with_buffer(0.5, 60.0), rng), 0);
}

TEST(Bba, HighBufferPicksHighestBitrate) {
  abr::BbaPolicy bba;
  Rng rng(1);
  EXPECT_EQ(bba.act(obs_with_buffer(58.0, 60.0), rng),
            abr::kBitrateCount - 1);
}

TEST(Bba, BitrateIsMonotoneInBuffer) {
  abr::BbaPolicy bba;
  Rng rng(1);
  int last = 0;
  for (double buf = 0.0; buf <= 60.0; buf += 2.0) {
    const int choice = bba.act(obs_with_buffer(buf, 60.0), rng);
    EXPECT_GE(choice, last);
    last = choice;
  }
  EXPECT_EQ(last, abr::kBitrateCount - 1);
}

TEST(Bba, TinyCapacityStaysConservative) {
  abr::BbaPolicy bba;
  Rng rng(1);
  // 2 s capacity: reservoir >= 1 s, so a sub-second buffer means lowest.
  EXPECT_EQ(bba.act(obs_with_buffer(0.5, 2.0), rng), 0);
}

TEST(Mpc, StarvedThroughputPicksLowest) {
  abr::RobustMpcPolicy mpc;
  mpc.begin_episode();
  Rng rng(1);
  EXPECT_EQ(mpc.act(obs_with_buffer(4.0, 60.0, 0.2), rng), 0);
}

TEST(Mpc, AbundantThroughputPicksHighest) {
  abr::RobustMpcPolicy mpc;
  mpc.begin_episode();
  Rng rng(1);
  EXPECT_EQ(mpc.act(obs_with_buffer(20.0, 60.0, 50.0), rng),
            abr::kBitrateCount - 1);
}

TEST(Mpc, ValidatesHorizon) {
  EXPECT_THROW(abr::RobustMpcPolicy(0), std::invalid_argument);
}

TEST(Mpc, BeatsConstantLowestOnGoodLink) {
  AbrEnvConfig cfg;
  cfg.video_length_s = 80.0;
  AbrEnv env_mpc(cfg, constant_trace(6.0, 400.0), 3);
  AbrEnv env_low(cfg, constant_trace(6.0, 400.0), 3);
  abr::RobustMpcPolicy mpc;
  abr::ConstantBitratePolicy lowest(0);
  Rng rng(1);
  const double r_mpc = netgym::run_episode(env_mpc, mpc, rng).mean_reward;
  const double r_low = netgym::run_episode(env_low, lowest, rng).mean_reward;
  EXPECT_GT(r_mpc, r_low);
}

TEST(Mpc, AvoidsRebufferOnSlowLink) {
  // On a 1 Mbps link MPC should hold a low bitrate and avoid the huge
  // rebuffering penalty that the constant-high policy incurs.
  AbrEnvConfig cfg;
  cfg.video_length_s = 80.0;
  AbrEnv env_mpc(cfg, constant_trace(1.0, 800.0), 3);
  AbrEnv env_high(cfg, constant_trace(1.0, 800.0), 3);
  abr::RobustMpcPolicy mpc;
  abr::ConstantBitratePolicy highest(abr::kBitrateCount - 1);
  Rng rng(1);
  const double r_mpc = netgym::run_episode(env_mpc, mpc, rng).mean_reward;
  const double r_high =
      netgym::run_episode(env_high, highest, rng).mean_reward;
  EXPECT_GT(r_mpc, 0.0);
  EXPECT_LT(r_high, 0.0);
}

TEST(MpcPlanner, ValidatesArguments) {
  const Observation obs = obs_with_buffer(10.0, 60.0);
  EXPECT_THROW(abr::mpc_best_first_action(obs, 3.0, 0), std::invalid_argument);
  Observation off_ladder = obs;
  off_ladder[AbrEnv::kObsLastBitrate] = 2.0;
  EXPECT_THROW(abr::mpc_best_first_action(off_ladder, 3.0, 5),
               std::out_of_range);
}

TEST(MpcPlanner, MatchesExhaustiveSearchOnRecordedEpisodes) {
  // Observations from RobustMPC and Oboe episodes over RL1-RL3. Each one is
  // planned at two throughput predictions: the harmonic mean of its history
  // and its newest sample, discounted by a third.
  std::vector<Observation> recorded;
  for (int space = 1; space <= 3; ++space) {
    const auto adapter = genet::make_adapter("abr", space);
    Rng rng(100 + space);
    for (int episode = 0; recorded.size() < 1800u * space; ++episode) {
      const netgym::Config config = adapter->space().sample(rng);
      abr::RobustMpcPolicy mpc;
      abr::OboePolicy oboe;
      netgym::Policy& inner =
          episode % 2 == 0 ? static_cast<netgym::Policy&>(mpc) : oboe;
      RecordingPolicy recorder(inner, recorded);
      const auto env = adapter->make_env(config, rng);
      netgym::run_episode(*env, recorder, rng);
    }
  }
  ASSERT_GE(recorded.size(), 5000u);
  int mismatches = 0;
  for (std::size_t i = 0; i < recorded.size() && mismatches < 5; ++i) {
    const Observation& obs = recorded[i];
    const double latest =
        std::pow(10.0, obs[AbrEnv::kObsThroughputHist +
                           AbrEnv::kThroughputHistory - 1]) - 1.0;
    const double throughput =
        i % 2 == 0 ? harmonic_mean_mbps(obs) : latest / 1.5;
    mismatches += count_mismatches(obs, throughput);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(MpcPlanner, MatchesExhaustiveSearchOnNearTies) {
  // Buffer at capacity and abundant throughput: no rebuffering, so every
  // bitrate b >= last scores bitrate(b) - (bitrate(b) - bitrate(last)), the
  // same real number, and only rounding and the tie-break separate them.
  for (double capacity : {4.0, 10.0, 60.0}) {
    for (double chunk_len : {1.0, 4.0}) {
      for (int last = 0; last < abr::kBitrateCount; ++last) {
        Observation obs = obs_with_buffer(capacity, capacity, 500.0);
        obs[AbrEnv::kObsChunkLength] = chunk_len / 10.0;
        obs[AbrEnv::kObsLastBitrate] =
            static_cast<double>(last) / (abr::kBitrateCount - 1);
        for (double throughput : {100.0, 500.0, 1e6}) {
          EXPECT_EQ(count_mismatches(obs, throughput), 0);
        }
      }
    }
  }
}

TEST(MpcPlanner, MatchesExhaustiveSearchOnDegenerateInputs) {
  Observation no_history = obs_with_buffer(5.0, 60.0, 0.0);
  for (int i = 0; i < AbrEnv::kThroughputHistory; ++i) {
    no_history[AbrEnv::kObsThroughputHist + i] = 0.0;
  }
  // RobustMPC predicts 1 Mbps on an empty history; 0 clamps to 1e-3.
  EXPECT_EQ(count_mismatches(no_history, harmonic_mean_mbps(no_history)), 0);
  EXPECT_EQ(count_mismatches(no_history, 0.0), 0);

  // Buffer capacity below one chunk (and below the planner's 1 s floor).
  for (double capacity : {0.5, 2.0, 3.9}) {
    for (double buffer : {0.0, capacity}) {
      Observation small = obs_with_buffer(buffer, capacity);
      for (double throughput : {0.5, 3.0, 50.0}) {
        EXPECT_EQ(count_mismatches(small, throughput), 0);
      }
    }
  }

  // Starved link, empty and full buffer.
  for (double buffer : {0.0, 30.0}) {
    const Observation starved = obs_with_buffer(buffer, 60.0, 0.05);
    for (double throughput : {1e-4, 0.05, 0.3}) {
      EXPECT_EQ(count_mismatches(starved, throughput), 0);
    }
  }

  // Inputs no environment produces: negative buffer and RTT, and NaN or
  // infinite sizes and predictions.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Observation hostile = obs_with_buffer(-3.0, 60.0);
  hostile[AbrEnv::kObsMinRtt] = -2.0;
  EXPECT_EQ(count_mismatches(hostile, 3.0), 0);
  for (int b = 0; b < abr::kBitrateCount; ++b) {
    for (double bad : {nan, inf, -inf}) {
      Observation sizes = obs_with_buffer(10.0, 60.0);
      sizes[AbrEnv::kObsNextSizes + b] = bad;
      EXPECT_EQ(count_mismatches(sizes, 3.0), 0);
    }
  }
  EXPECT_EQ(count_mismatches(obs_with_buffer(10.0, 60.0), nan), 0);
  EXPECT_EQ(count_mismatches(obs_with_buffer(10.0, 60.0), inf), 0);
  Observation nan_buffer = obs_with_buffer(10.0, 60.0);
  nan_buffer[AbrEnv::kObsBuffer] = nan;
  EXPECT_EQ(count_mismatches(nan_buffer, 3.0), 0);
}

TEST(MpcPlanner, MatchesExhaustiveSearchOnRandomObservations) {
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    Observation obs = obs_with_buffer(rng.uniform(0.0, 60.0),
                                      rng.uniform(0.5, 100.0));
    obs[AbrEnv::kObsChunkLength] = rng.uniform(0.005, 1.0);
    obs[AbrEnv::kObsMinRtt] = rng.uniform(0.0, 0.5);
    obs[AbrEnv::kObsLastBitrate] =
        static_cast<double>(rng.uniform_int(0, abr::kBitrateCount - 1)) /
        (abr::kBitrateCount - 1);
    for (int b = 0; b < abr::kBitrateCount; ++b) {
      obs[AbrEnv::kObsNextSizes + b] *= rng.uniform(0.2, 3.0);
    }
    EXPECT_EQ(count_mismatches(obs, std::exp(rng.uniform(-7.0, 5.0))), 0);
  }
}

TEST(Oboe, ValidatesHorizon) {
  EXPECT_THROW(abr::OboePolicy(0), std::invalid_argument);
}

TEST(Oboe, ConservativeWithoutSignalAndScalesWithThroughput) {
  abr::OboePolicy oboe;
  Rng rng(1);
  // No throughput history at all -> lowest bitrate.
  Observation cold = obs_with_buffer(10.0, 60.0, 0.0);
  for (int i = 0; i < AbrEnv::kThroughputHistory; ++i) {
    cold[AbrEnv::kObsThroughputHist + i] = 0.0;
  }
  EXPECT_EQ(oboe.act(cold, rng), 0);
  // Abundant stable throughput -> highest bitrate.
  EXPECT_EQ(oboe.act(obs_with_buffer(20.0, 60.0, 50.0), rng),
            abr::kBitrateCount - 1);
}

TEST(Oboe, VarianceMakesItMoreConservativeThanStableHistory) {
  // Same mean throughput, but a wildly varying history must not pick a
  // higher bitrate than a stable one.
  abr::OboePolicy oboe;
  Rng rng(1);
  Observation stable = obs_with_buffer(12.0, 60.0, 3.0);
  Observation wild = obs_with_buffer(12.0, 60.0, 3.0);
  for (int i = 0; i < AbrEnv::kThroughputHistory; ++i) {
    const double mbps = (i % 2 == 0) ? 0.5 : 5.5;  // mean 3.0, high variance
    wild[AbrEnv::kObsThroughputHist + i] = std::log10(1.0 + mbps);
  }
  EXPECT_LE(oboe.act(wild, rng), oboe.act(stable, rng));
}

TEST(NaiveAbr, InvertedBufferLogic) {
  abr::NaiveAbrPolicy naive;
  Rng rng(1);
  // Nearly empty buffer -> highest bitrate (the unreasonable move).
  EXPECT_EQ(naive.act(obs_with_buffer(0.2, 60.0), rng),
            abr::kBitrateCount - 1);
  EXPECT_EQ(naive.act(obs_with_buffer(30.0, 60.0), rng), 0);
}

TEST(ConstantBitrate, ReturnsFixedIndexAndValidates) {
  abr::ConstantBitratePolicy policy(3);
  Rng rng(1);
  EXPECT_EQ(policy.act(obs_with_buffer(5.0, 60.0), rng), 3);
  EXPECT_THROW(abr::ConstantBitratePolicy(-1), std::invalid_argument);
  EXPECT_THROW(abr::ConstantBitratePolicy(abr::kBitrateCount),
               std::invalid_argument);
}

}  // namespace
