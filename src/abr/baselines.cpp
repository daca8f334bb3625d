#include "abr/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace abr {

namespace {

double buffer_from_obs(const netgym::Observation& obs) {
  return obs[AbrEnv::kObsBuffer] * 30.0;
}

double max_buffer_from_obs(const netgym::Observation& obs) {
  return obs[AbrEnv::kObsMaxBuffer] * 100.0;
}

double chunk_length_from_obs(const netgym::Observation& obs) {
  return obs[AbrEnv::kObsChunkLength] * 10.0;
}

}  // namespace

int mpc_best_first_action(const netgym::Observation& obs,
                          double predicted_throughput_mbps, int horizon) {
  if (horizon <= 0) {
    throw std::invalid_argument("mpc_best_first_action: horizon must be > 0");
  }
  const double throughput = std::max(predicted_throughput_mbps, 1e-3);
  const double chunk_len = std::max(chunk_length_from_obs(obs), 0.1);
  const double capacity = std::max(max_buffer_from_obs(obs), 1.0);
  const double rtt_s = obs[AbrEnv::kObsMinRtt];
  const double start_buffer = buffer_from_obs(obs);
  const int last_bitrate = static_cast<int>(
      std::lround(obs[AbrEnv::kObsLastBitrate] * (kBitrateCount - 1)));
  if (last_bitrate < 0 || last_bitrate >= kBitrateCount) {
    throw std::out_of_range(
        "mpc_best_first_action: last bitrate off the ladder");
  }

  // Per-call constants: the ladder in Mbps and each bitrate's download time
  // for the next chunk (observed sizes) and for every later chunk (nominal
  // sizes). Keep these expressions as they are: the rewards must match the
  // exhaustive enumeration in tests/abr/baselines_test.cpp bit for bit.
  double mbps[kBitrateCount];
  double download_first[kBitrateCount];
  double download_rest[kBitrateCount];
  for (int b = 0; b < kBitrateCount; ++b) {
    mbps[b] = bitrate_mbps(b);
    download_first[b] =
        obs[AbrEnv::kObsNextSizes + b] * 8.0 / throughput + rtt_s;
    const double size_mb = bitrate_kbps(b) * 1000.0 * chunk_len / 8e6;
    download_rest[b] = size_mb * 8.0 / throughput + rtt_s;
  }

  // bound[d] >= the reward of step d on every path. buffer_max is an upper
  // bound of the buffer any path can hold at step d; its first value is the
  // start buffer. Each step's reward and buffer are built from +, -, *,
  // max and min, each monotone in every argument under round-to-nearest
  // (the build forbids FMA contraction, which would round differently), and
  // the change penalty is >= 0, so the step reward of a real path never
  // exceeds bound[d] and every float partial sum of a path, taken in path
  // order, never exceeds the same-order sum of its bounds. A NaN step
  // reward or download time sticks in the bound, and a NaN bound prunes
  // nothing.
  std::vector<double> bound(static_cast<std::size_t>(horizon));
  double buffer_max = start_buffer;
  for (int d = 0; d < horizon; ++d) {
    const double* download = d == 0 ? download_first : download_rest;
    double best_step = -std::numeric_limits<double>::infinity();
    double min_download = std::numeric_limits<double>::infinity();
    for (int b = 0; b < kBitrateCount; ++b) {
      const double rebuffer = std::max(download[b] - buffer_max, 0.0);
      const double r = mbps[b] - 10.0 * rebuffer;
      if (std::isnan(r) || r > best_step) best_step = r;
      if (std::isnan(download[b]) || download[b] < min_download) {
        min_download = download[b];
      }
    }
    bound[static_cast<std::size_t>(d)] = best_step;
    buffer_max = std::min(
        std::max(buffer_max - min_download, 0.0) + chunk_len, capacity);
  }

  // Depth-first search in lexicographic order with the strict > of the
  // exhaustive enumeration, so ties keep going to the first sequence. A
  // prefix is cut when even its bound cannot beat the best sequence so far:
  // no leaf below it could pass the strict >, so the cut changes nothing.
  double best_reward = -1e18;
  int best_first = 0;
  auto search = [&](auto&& self, int depth, int first, double buffer,
                    int last, double reward) -> void {
    if (depth == horizon) {
      if (reward > best_reward) {
        best_reward = reward;
        best_first = first;
      }
      return;
    }
    double reachable = reward;
    for (int d = depth; d < horizon; ++d) {
      reachable += bound[static_cast<std::size_t>(d)];
    }
    if (reachable <= best_reward) return;
    const double* download = depth == 0 ? download_first : download_rest;
    for (int b = 0; b < kBitrateCount; ++b) {
      const double rebuffer = std::max(download[b] - buffer, 0.0);
      double new_buffer = std::max(buffer - download[b], 0.0) + chunk_len;
      new_buffer = std::min(new_buffer, capacity);
      const double change = std::abs(mbps[b] - mbps[last]);
      const double r = mbps[b] - 10.0 * rebuffer - change;
      self(self, depth + 1, depth == 0 ? b : first, new_buffer, b,
           reward + r);
    }
  };
  search(search, 0, 0, start_buffer, last_bitrate, 0.0);
  return best_first;
}

int BbaPolicy::act(const netgym::Observation& obs, netgym::Rng&) {
  const double buffer = buffer_from_obs(obs);
  const double capacity = std::max(max_buffer_from_obs(obs), 1.0);
  const double chunk_len = std::max(chunk_length_from_obs(obs), 0.1);
  // Reservoir: a floor of playback runway before leaving the lowest rate;
  // upper threshold: where the highest rate becomes safe. The cushion is at
  // least two chunk durations so that players whose buffer capacity is
  // smaller than a few chunks (Table 3 allows 2 s buffers with 10 s chunks)
  // stay conservative instead of pinning to the top rate.
  const double reservoir =
      std::min(std::max(0.1 * capacity, chunk_len), 0.4 * capacity);
  const double upper =
      reservoir + std::max(0.75 * capacity, 2.0 * chunk_len);
  if (buffer <= reservoir) return 0;
  if (buffer >= upper) return kBitrateCount - 1;
  const double fraction = (buffer - reservoir) / (upper - reservoir);
  const int index = static_cast<int>(fraction * (kBitrateCount - 1) + 0.5);
  return std::clamp(index, 0, kBitrateCount - 1);
}

RobustMpcPolicy::RobustMpcPolicy(int horizon) : horizon_(horizon) {
  if (horizon <= 0) {
    throw std::invalid_argument("RobustMpcPolicy: horizon must be > 0");
  }
}

void RobustMpcPolicy::begin_episode() {
  last_prediction_mbps_ = 0.0;
  max_error_ = 0.0;
}

double RobustMpcPolicy::predict_throughput_mbps(
    const netgym::Observation& obs) {
  // Harmonic mean of the non-zero throughput history (up to 5 most recent).
  double inv_sum = 0.0;
  int count = 0;
  for (int i = AbrEnv::kThroughputHistory - 1;
       i >= 0 && count < 5; --i) {
    const double mbps =
        std::pow(10.0, obs[AbrEnv::kObsThroughputHist + i]) - 1.0;
    if (mbps > 1e-6) {
      inv_sum += 1.0 / mbps;
      ++count;
    }
  }
  const double harmonic = count > 0 ? count / inv_sum : 1.0;
  // Track the relative error of the previous prediction against the newest
  // actual sample. The kept error is a running max that decays by 0.9 per
  // step, a smooth stand-in for RobustMPC's max over a recent window.
  const double latest =
      std::pow(10.0,
               obs[AbrEnv::kObsThroughputHist + AbrEnv::kThroughputHistory - 1]) -
      1.0;
  if (last_prediction_mbps_ > 1e-6 && latest > 1e-6) {
    const double err =
        std::abs(last_prediction_mbps_ - latest) / latest;
    max_error_ = std::max(max_error_ * 0.9, err);
  }
  const double robust = harmonic / (1.0 + max_error_);
  last_prediction_mbps_ = robust;
  return std::max(robust, 1e-3);
}

int RobustMpcPolicy::act(const netgym::Observation& obs, netgym::Rng&) {
  const double throughput = predict_throughput_mbps(obs);
  return mpc_best_first_action(obs, throughput, horizon_);
}

OboePolicy::OboePolicy(int horizon) : horizon_(horizon) {
  if (horizon <= 0) {
    throw std::invalid_argument("OboePolicy: horizon must be > 0");
  }
}

int OboePolicy::act(const netgym::Observation& obs, netgym::Rng&) {
  // Oboe-style auto-tuning: the throughput prediction's safety discount is
  // set from the observed network state (mean and coefficient of variation
  // of recent throughput), rather than from online error tracking.
  double sum = 0.0, sq = 0.0;
  int count = 0;
  for (int i = 0; i < AbrEnv::kThroughputHistory; ++i) {
    const double mbps =
        std::pow(10.0, obs[AbrEnv::kObsThroughputHist + i]) - 1.0;
    if (mbps > 1e-6) {
      sum += mbps;
      sq += mbps * mbps;
      ++count;
    }
  }
  if (count == 0) return 0;  // no signal yet: be conservative
  const double mean = sum / count;
  const double var = std::max(sq / count - mean * mean, 0.0);
  const double cv = std::sqrt(var) / std::max(mean, 1e-6);
  const double discounted = mean / (1.0 + 1.5 * cv);
  return mpc_best_first_action(obs, discounted, horizon_);
}

int NaiveAbrPolicy::act(const netgym::Observation& obs, netgym::Rng&) {
  const double buffer = buffer_from_obs(obs);
  return buffer < 1.0 ? kBitrateCount - 1 : 0;
}

ConstantBitratePolicy::ConstantBitratePolicy(int bitrate_index)
    : bitrate_index_(bitrate_index) {
  if (bitrate_index < 0 || bitrate_index >= kBitrateCount) {
    throw std::invalid_argument("ConstantBitratePolicy: index out of range");
  }
}

int ConstantBitratePolicy::act(const netgym::Observation&, netgym::Rng&) {
  return bitrate_index_;
}

}  // namespace abr
