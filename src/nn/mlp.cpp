#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dp::nn {

Mlp::Mlp(const std::vector<std::size_t>& sizes, std::uint32_t seed) {
  if (sizes.size() < 2) throw std::invalid_argument("Mlp: need at least input and output sizes");
  std::mt19937 rng(seed);
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    DenseLayer layer;
    layer.weights = Matrix::he_normal(sizes[i + 1], sizes[i], rng);
    layer.bias.assign(sizes[i + 1], 0.0f);
    layer.activation =
        (i + 2 == sizes.size()) ? Activation::kIdentity : Activation::kReLU;
    layers_.push_back(std::move(layer));
  }
}

std::size_t Mlp::input_dim() const { return layers_.front().fan_in(); }
std::size_t Mlp::output_dim() const { return layers_.back().fan_out(); }

std::vector<float> Mlp::forward(const std::vector<float>& x) const {
  if (x.size() != input_dim()) throw std::invalid_argument("Mlp::forward: bad input size");
  std::vector<float> act = x;
  for (const auto& layer : layers_) {
    // Input index outer, skipping exact zeros: the same sums as the dense
    // per-row loop, bit for bit (see the contract in nn/trainer.hpp).
    std::vector<float> next = layer.bias;
    for (std::size_t i = 0; i < layer.fan_in(); ++i) {
      if (act[i] == 0.0f) continue;
      for (std::size_t j = 0; j < layer.fan_out(); ++j) next[j] += layer.weights(j, i) * act[i];
    }
    if (layer.activation == Activation::kReLU) {
      for (float& v : next) v = std::max(0.0f, v);
    }
    act = std::move(next);
  }
  return act;
}

Matrix Mlp::forward(const Matrix& x) const {
  Matrix out(x.rows(), output_dim());
  std::vector<float> row(x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) row[c] = x(r, c);
    const std::vector<float> scores = forward(row);
    for (std::size_t c = 0; c < scores.size(); ++c) out(r, c) = scores[c];
  }
  return out;
}

int Mlp::predict(const std::vector<float>& x) const { return argmax(forward(x)); }

std::vector<float> Mlp::parameters() const {
  std::vector<float> out;
  for (const auto& layer : layers_) {
    out.insert(out.end(), layer.weights.data().begin(), layer.weights.data().end());
    out.insert(out.end(), layer.bias.begin(), layer.bias.end());
  }
  return out;
}

std::vector<float> softmax(const std::vector<float>& scores) {
  std::vector<float> out(scores.size());
  softmax_into(scores, out);
  return out;
}

void softmax_into(std::span<const float> scores, std::span<float> out) {
  const float mx = *std::max_element(scores.begin(), scores.end());
  float sum = 0.0f;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    out[i] = std::exp(scores[i] - mx);
    sum += out[i];
  }
  for (auto& v : out) v /= sum;
}

int argmax(const std::vector<float>& v) {
  if (v.empty()) throw std::invalid_argument("argmax: empty");
  return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

}  // namespace dp::nn
