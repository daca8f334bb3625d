#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "netgym/checkpoint.hpp"
#include "netgym/rng.hpp"

namespace nn {

/// Hidden-layer activation of an `Mlp`. The output layer is always linear
/// (policy heads apply softmax themselves; value heads are scalar).
enum class Activation { kTanh, kRelu };

/// A small fully-connected network with flat parameter storage and a batched
/// compute core.
///
/// All weights and biases live in one contiguous vector (`params()`), with a
/// parallel gradient vector (`grads()`), so optimizers operate on flat arrays
/// and snapshotting a policy is a vector copy. The layout per layer `l`
/// (input width `n_in`, output width `n_out`) is a row-major `n_out x n_in`
/// weight block followed by `n_out` biases.
///
/// `forward_batch` / `backward_batch` run N samples through the
/// cache-blocked GEMM kernels in nn/gemm.hpp. Everything a pass needs beyond
/// the parameters lives in a caller-owned `Workspace`, so `forward_batch` is
/// const: any number of threads may run one network at once, each with its
/// own workspace. Under the default strict math mode (see nn::MathMode) a
/// batched pass is bit-identical to looping N = 1 passes, for both outputs
/// and accumulated gradients.
///
/// `forward_batch` caches the batch's per-layer activations in the
/// workspace; `backward_batch` consumes that cache, so the call pattern is
/// forward -> backward on the same network and workspace with a matching
/// batch size. Gradients accumulate across calls until `zero_grad()`.
class Mlp : public netgym::checkpoint::Serializable {
 public:
  /// Scratch of one forward/backward pass. Buffers only grow, so a warm
  /// workspace makes steady-state passes allocation-free, also when it
  /// alternates between networks of one shape.
  struct Workspace {
    // acts[0] is the n x input batch, acts[l+1] the n x width
    // post-activation output of layer l; zs[l] the layer's n x width
    // pre-activation.
    std::vector<std::vector<double>> acts;
    std::vector<std::vector<double>> zs;
    std::vector<double> wt;          // transposed weights of one layer
    std::vector<double> delta;       // n x width, dL/dz of current layer
    std::vector<double> prev_delta;  // n x width of the layer below
    std::size_t cached_rows = 0;     // 0 = no valid forward cache
  };

  /// `sizes` lists the widths of every layer, e.g. {10, 32, 32, 6} is a net
  /// with 10 inputs, two hidden layers of 32, and 6 outputs. Weights are
  /// Xavier-initialized from `rng`.
  Mlp(std::vector<int> sizes, Activation activation, netgym::Rng& rng);

  int input_size() const { return sizes_.front(); }
  int output_size() const { return sizes_.back(); }

  /// Run `n` samples (row-major `n x input_size`) through the network in one
  /// batched pass. Returns the `n x output_size` output matrix, which points
  /// into `ws` and is valid until the workspace's next pass.
  const std::vector<double>& forward_batch(const double* inputs, std::size_t n,
                                           Workspace& ws) const;

  /// Backpropagate a batch of output gradients (row-major
  /// `n x output_size`) through the forward pass cached in `ws`,
  /// accumulating parameter gradients exactly as if the samples had been
  /// processed one by one in row order. `n` must match the cached batch.
  void backward_batch(const double* grad_outputs, std::size_t n,
                      Workspace& ws);

  void zero_grad();

  std::vector<double>& params() { return params_; }
  const std::vector<double>& params() const { return params_; }
  std::vector<double>& grads() { return grads_; }
  const std::vector<double>& grads() const { return grads_; }

  /// Replace all parameters (sizes must match); used to restore snapshots.
  void set_params(const std::vector<double>& params);

  std::size_t num_params() const { return params_.size(); }

  /// Checkpoint hooks: saves the topology (sizes, activation) alongside the
  /// exact parameter bit patterns; load validates the topology against this
  /// network before touching `params_` (gradients are transient and
  /// deliberately not persisted).
  void save_state(netgym::checkpoint::Snapshot& snap,
                  const std::string& prefix) const override;
  void load_state(const netgym::checkpoint::Snapshot& snap,
                  const std::string& prefix) override;

 private:
  std::vector<int> sizes_;
  Activation activation_;
  std::vector<double> params_;
  std::vector<double> grads_;
  std::vector<std::size_t> weight_offsets_;  // per layer
  std::vector<std::size_t> bias_offsets_;    // per layer
};

/// Numerically stable softmax.
std::vector<double> softmax(const std::vector<double>& logits);

/// Softmax of one `width`-wide row into `probs` (may not alias `logits`).
/// Identical arithmetic to `softmax`, allocation-free.
void softmax_row(const double* logits, int width, double* probs);

/// log(softmax(logits)[index]) computed stably.
double log_softmax_at(const std::vector<double>& logits, int index);

/// Row variant of `log_softmax_at`, identical arithmetic.
double log_softmax_row_at(const double* logits, int width, int index);

}  // namespace nn
