#include "rl/policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace rl {

namespace {
std::vector<int> make_sizes(int obs_size, int action_count,
                            const std::vector<int>& hidden) {
  if (obs_size <= 0 || action_count <= 0) {
    throw std::invalid_argument("MlpPolicy: sizes must be > 0");
  }
  std::vector<int> sizes;
  sizes.push_back(obs_size);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(action_count);
  return sizes;
}
}  // namespace

MlpPolicy::MlpPolicy(int obs_size, int action_count,
                     const std::vector<int>& hidden, netgym::Rng& rng)
    : net_(make_sizes(obs_size, action_count, hidden), nn::Activation::kTanh,
           rng) {}

int MlpPolicy::sample_row(const double* logits_row, netgym::Rng& rng,
                          std::vector<double>& probs) const {
  const int k = net_.output_size();
  if (greedy_) {
    // std::max_element keeps the first maximum on ties, so greedy actions
    // are deterministic and independent of how the logits were computed.
    return static_cast<int>(std::distance(
        logits_row, std::max_element(logits_row, logits_row + k)));
  }
  probs.resize(static_cast<std::size_t>(k));
  nn::softmax_row(logits_row, k, probs.data());
  return static_cast<int>(rng.categorical(probs));
}

const std::vector<double>& MlpPolicy::forward_one(
    const netgym::Observation& obs, Workspace& ws) const {
  if (static_cast<int>(obs.size()) != obs_size()) {
    throw std::invalid_argument("MlpPolicy: observation size mismatch");
  }
  return net_.forward_batch(obs.data(), 1, ws.net);
}

int MlpPolicy::act(const netgym::Observation& obs, netgym::Rng& rng) {
  return sample_row(forward_one(obs, own_).data(), rng, own_.probs);
}

std::vector<double> MlpPolicy::logits(const netgym::Observation& obs) const {
  Workspace ws;
  return forward_one(obs, ws);
}

std::vector<double> MlpPolicy::probs(const netgym::Observation& obs) const {
  return nn::softmax(logits(obs));
}

void MlpPolicy::act_batch(const double* obs, std::size_t n,
                          netgym::Rng* const* rngs, int* actions,
                          Workspace& ws) const {
  const std::vector<double>& z = net_.forward_batch(obs, n, ws.net);
  const int k = net_.output_size();
  for (std::size_t m = 0; m < n; ++m) {
    actions[m] = sample_row(z.data() + m * k, *rngs[m], ws.probs);
  }
}

}  // namespace rl
