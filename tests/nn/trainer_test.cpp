// nn::train and Mlp::forward against in-test dense oracles, bit for bit.
// The oracles are the plain textbook loops: a per-row sum over every input,
// and per-sample backprop with one Adam step per batch. The fast trainer
// reorders loops, skips exact zeros and zeroes quiet rows of its forward
// copy (nn/trainer.hpp); none of that may change a single bit. The inputs
// are built to reach every branch: 0.0f and -0.0f inputs, hand-set
// subnormal weights, dead ReLU units, and a quiet row that an input of
// 2^34 pulls off its bias.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/trainer.hpp"

namespace dp::nn {
namespace {

/// Per-row dense forward: z[j] = bias[j] + sum over every i, in order.
std::vector<std::vector<float>> dense_forward(const Mlp& net, const std::vector<float>& x,
                                              std::vector<std::vector<float>>* pre = nullptr) {
  std::vector<std::vector<float>> acts{x};
  for (const DenseLayer& layer : net.layers()) {
    std::vector<float> z(layer.fan_out());
    for (std::size_t j = 0; j < layer.fan_out(); ++j) {
      float sum = layer.bias[j];
      for (std::size_t i = 0; i < layer.fan_in(); ++i) sum += layer.weights(j, i) * acts.back()[i];
      z[j] = sum;
    }
    if (pre != nullptr) pre->push_back(z);
    if (layer.activation == Activation::kReLU) {
      for (float& v : z) v = std::max(0.0f, v);
    }
    acts.push_back(z);
  }
  return acts;
}

/// Mini-batch Adam with softmax cross-entropy, one sample at a time.
TrainResult dense_train(Mlp& net, const Matrix& x, const std::vector<int>& y,
                        const TrainConfig& cfg) {
  const float b1 = 0.9f, b2 = 0.999f, eps = 1e-8f;
  const std::size_t nl = net.layers().size();
  std::vector<Matrix> mw, vw;
  std::vector<std::vector<float>> mb, vb;
  for (const DenseLayer& layer : net.layers()) {
    mw.emplace_back(layer.fan_out(), layer.fan_in());
    vw.emplace_back(layer.fan_out(), layer.fan_in());
    mb.emplace_back(layer.fan_out(), 0.0f);
    vb.emplace_back(layer.fan_out(), 0.0f);
  }
  std::mt19937 rng(cfg.seed);
  std::vector<std::size_t> order(x.rows());
  std::iota(order.begin(), order.end(), 0);
  TrainResult result;
  long step = 0;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng);
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < order.size(); start += cfg.batch_size) {
      const std::size_t end = std::min(order.size(), start + cfg.batch_size);
      const auto bsz = static_cast<float>(end - start);
      std::vector<Matrix> gw;
      std::vector<std::vector<float>> gb;
      for (const DenseLayer& layer : net.layers()) {
        gw.emplace_back(layer.fan_out(), layer.fan_in());
        gb.emplace_back(layer.fan_out(), 0.0f);
      }
      for (std::size_t idx = start; idx < end; ++idx) {
        const std::size_t r = order[idx];
        std::vector<float> row(x.cols());
        for (std::size_t c = 0; c < x.cols(); ++c) row[c] = x(r, c);
        std::vector<std::vector<float>> pre;
        const auto acts = dense_forward(net, row, &pre);
        std::vector<float> delta = softmax(acts.back());
        const auto label = static_cast<std::size_t>(y[r]);
        epoch_loss += -std::log(std::max(delta[label], 1e-12f));
        delta[label] -= 1.0f;
        for (std::size_t li = nl; li-- > 0;) {
          const DenseLayer& layer = net.layers()[li];
          if (layer.activation == Activation::kReLU) {
            for (std::size_t j = 0; j < delta.size(); ++j) {
              if (pre[li][j] <= 0.0f) delta[j] = 0.0f;
            }
          }
          for (std::size_t j = 0; j < layer.fan_out(); ++j) {
            gb[li][j] += delta[j];
            for (std::size_t i = 0; i < layer.fan_in(); ++i) gw[li](j, i) += delta[j] * acts[li][i];
          }
          if (li == 0) break;
          std::vector<float> prev(layer.fan_in());
          for (std::size_t i = 0; i < layer.fan_in(); ++i) {
            float s = 0.0f;
            for (std::size_t j = 0; j < layer.fan_out(); ++j) s += layer.weights(j, i) * delta[j];
            prev[i] = s;
          }
          delta = std::move(prev);
        }
      }
      ++step;
      const float corr1 = 1.0f - std::pow(b1, static_cast<float>(step));
      const float corr2 = 1.0f - std::pow(b2, static_cast<float>(step));
      for (std::size_t li = 0; li < nl; ++li) {
        DenseLayer& layer = net.layers()[li];
        for (std::size_t j = 0; j < layer.fan_out(); ++j) {
          for (std::size_t i = 0; i < layer.fan_in(); ++i) {
            const float g = gw[li](j, i) / bsz + cfg.l2 * layer.weights(j, i);
            float& m = mw[li](j, i);
            float& v = vw[li](j, i);
            m = b1 * m + (1 - b1) * g;
            v = b2 * v + (1 - b2) * g * g;
            layer.weights(j, i) -= cfg.learning_rate * (m / corr1) / (std::sqrt(v / corr2) + eps);
          }
          const float g = gb[li][j] / bsz;
          float& m = mb[li][j];
          float& v = vb[li][j];
          m = b1 * m + (1 - b1) * g;
          v = b2 * v + (1 - b2) * g * g;
          layer.bias[j] -= cfg.learning_rate * (m / corr1) / (std::sqrt(v / corr2) + eps);
        }
      }
    }
    result.epoch_loss.push_back(static_cast<float>(epoch_loss / static_cast<double>(x.rows())));
  }
  result.final_loss = result.epoch_loss.empty() ? 0.0f : result.epoch_loss.back();
  return result;
}

std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out;
  for (const float f : v) out.push_back(std::bit_cast<std::uint32_t>(f));
  return out;
}

/// Inputs in [-1, 1] with about a third exact zeros, half of them -0.0f.
Matrix sparse_inputs(std::size_t rows, std::size_t cols, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> u(-1.0f, 1.0f);
  Matrix x(rows, cols);
  for (float& v : x.data()) {
    const float r = u(rng);
    v = std::fabs(r) < 0.33f ? (r < 0.0f ? -0.0f : 0.0f) : u(rng);
  }
  return x;
}

/// Row 1 of layer 0 subnormal and dead, row 2 subnormal-mixed: the l2 decay
/// of a dead ReLU unit, set by hand.
void plant_subnormals(Mlp& net) {
  DenseLayer& l0 = net.layers()[0];
  for (std::size_t i = 0; i < l0.fan_in(); ++i) {
    l0.weights(1, i) = (i % 2 ? 1 : -1) * 0x1p-140f * static_cast<float>(i + 1);
    if (i % 3 == 0) l0.weights(2, i) = 0x1p-135f;
  }
  l0.bias[1] = -0.25f;
}

void expect_same_training(const Mlp& start, const Matrix& x, const std::vector<int>& y,
                          const TrainConfig& cfg) {
  Mlp fast = start, dense = start;
  const TrainResult rf = train(fast, x, y, cfg);
  const TrainResult rd = dense_train(dense, x, y, cfg);
  EXPECT_EQ(bits(fast.parameters()), bits(dense.parameters()));
  EXPECT_EQ(bits(rf.epoch_loss), bits(rd.epoch_loss));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(rf.final_loss),
            std::bit_cast<std::uint32_t>(rd.final_loss));
}

TEST(TrainerOracle, MatchesDenseTrainerBitForBit) {
  const Matrix x = sparse_inputs(45, 7, 3);
  std::vector<int> y;
  for (std::size_t r = 0; r < x.rows(); ++r) y.push_back(static_cast<int>(r % 3));
  for (const std::size_t batch : {std::size_t{1}, std::size_t{8}, std::size_t{64}}) {
    SCOPED_TRACE(batch);
    Mlp net({7, 9, 5, 3}, 2);
    plant_subnormals(net);
    TrainConfig cfg;
    cfg.epochs = 12;
    cfg.batch_size = batch;
    cfg.learning_rate = 1e-2f;
    cfg.l2 = 5e-3f;
    cfg.seed = 5;
    expect_same_training(net, x, y, cfg);
    // An identity hidden layer: prev is then summed over every input.
    net.layers()[1].activation = Activation::kIdentity;
    expect_same_training(net, x, y, cfg);
  }
}

TEST(TrainerOracle, QuietRowTakesTheExactSumForAHugeInput) {
  // Row 0 of layer 0 is quiet: its bias 1 outweighs every product of its
  // 2^-55 weights for inputs below 2^28. Row 3 of x holds 2^34 in column
  // 0, which moves that row's sum by 2^-21; the other rows ignore column 0,
  // and the readout weighs unit 0 by +-3, so the move reaches the loss.
  Matrix x = sparse_inputs(6, 4, 9);
  x(3, 0) = 0x1p34f;
  const std::vector<int> y{0, 1, 0, 1, 1, 0};
  Mlp net({4, 3, 2}, 4);
  DenseLayer& l0 = net.layers()[0];
  for (std::size_t i = 0; i < 4; ++i) l0.weights(0, i) = 0x1p-55f;
  l0.weights(1, 0) = l0.weights(2, 0) = 0.0f;
  l0.bias[0] = 1.0f;
  net.layers()[1].weights(0, 0) = 3.0f;
  net.layers()[1].weights(1, 0) = -3.0f;
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 6;
  cfg.l2 = 1e-3f;
  expect_same_training(net, x, y, cfg);
}

TEST(MlpForward, MatchesDensePerRowSum) {
  Mlp net({6, 5, 4}, 7);
  for (DenseLayer& layer : net.layers()) {
    for (std::size_t j = 0; j < layer.bias.size(); ++j) {
      layer.bias[j] = (j % 2 ? -0.1f : 0.3f) * static_cast<float>(j + 1);
    }
  }
  plant_subnormals(net);
  const std::vector<std::vector<float>> inputs{
      {0.0f, -0.0f, 0.5f, -0.75f, 0x1p-130f, 1.0f},
      {-0.0f, -0.0f, -0.0f, 0.0f, 0.0f, 0.0f},
      {1e-3f, 0.0f, 2.0f, -0.0f, -3.0f, 0.25f},
  };
  for (const auto& x : inputs) {
    EXPECT_EQ(bits(net.forward(x)), bits(dense_forward(net, x).back()));
  }
}

}  // namespace
}  // namespace dp::nn
