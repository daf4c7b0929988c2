#pragma once
// Float32 multilayer perceptron with backprop — the reference model whose
// trained parameters are quantized into the low-precision formats. Matches
// the paper's architecture (Fig. 1): dense layers, ReLU hidden activations,
// affine (identity) readout.

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "nn/tensor.hpp"

namespace dp::nn {

enum class Activation { kReLU, kIdentity };

struct DenseLayer {
  Matrix weights;              ///< out x in
  std::vector<float> bias;     ///< out
  Activation activation = Activation::kReLU;

  std::size_t fan_in() const { return weights.cols(); }
  std::size_t fan_out() const { return weights.rows(); }
};

/// Feed-forward network; the last layer is the affine readout (class scores).
class Mlp {
 public:
  Mlp() = default;

  /// Build with the given layer sizes, e.g. {4, 10, 6, 3}: two ReLU hidden
  /// layers and an identity readout.
  Mlp(const std::vector<std::size_t>& sizes, std::uint32_t seed);

  const std::vector<DenseLayer>& layers() const { return layers_; }
  std::vector<DenseLayer>& layers() { return layers_; }
  std::size_t input_dim() const;
  std::size_t output_dim() const;

  /// Scores (pre-softmax) for one sample.
  std::vector<float> forward(const std::vector<float>& x) const;

  /// Batched scores: X is samples x features; returns samples x classes.
  Matrix forward(const Matrix& x) const;

  /// Predicted class = argmax of scores.
  int predict(const std::vector<float>& x) const;

  /// All trainable parameters, flattened (for inspection / histograms).
  std::vector<float> parameters() const;

 private:
  std::vector<DenseLayer> layers_;
};

/// Softmax of a score vector (numerically stable).
std::vector<float> softmax(const std::vector<float>& scores);

/// The same softmax written into `out` (out.size() == scores.size()).
void softmax_into(std::span<const float> scores, std::span<float> out);

/// argmax helper.
int argmax(const std::vector<float>& v);

}  // namespace dp::nn
