// Tests for the float32 network: shapes, softmax, training convergence and
// gradient sanity.

#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "nn/trainer.hpp"

namespace dp::nn {
namespace {

TEST(MlpConstruct, ShapesAndActivations) {
  const Mlp net({4, 10, 6, 3}, 1);
  ASSERT_EQ(net.layers().size(), 3u);
  EXPECT_EQ(net.input_dim(), 4u);
  EXPECT_EQ(net.output_dim(), 3u);
  EXPECT_EQ(net.layers()[0].weights.rows(), 10u);
  EXPECT_EQ(net.layers()[0].weights.cols(), 4u);
  EXPECT_EQ(net.layers()[0].activation, Activation::kReLU);
  EXPECT_EQ(net.layers()[1].activation, Activation::kReLU);
  EXPECT_EQ(net.layers()[2].activation, Activation::kIdentity);
  EXPECT_THROW(Mlp({4}, 1), std::invalid_argument);
}

TEST(MlpConstruct, SeededReproducibility) {
  const Mlp a({4, 8, 2}, 42);
  const Mlp b({4, 8, 2}, 42);
  const Mlp c({4, 8, 2}, 43);
  EXPECT_EQ(a.parameters(), b.parameters());
  EXPECT_NE(a.parameters(), c.parameters());
}

TEST(MlpForward, ReluClampsSingleLayer) {
  Mlp net({2, 1}, 1);
  net.layers()[0].activation = Activation::kReLU;
  net.layers()[0].weights(0, 0) = 1.0f;
  net.layers()[0].weights(0, 1) = -1.0f;
  net.layers()[0].bias[0] = 0.0f;
  EXPECT_FLOAT_EQ(net.forward(std::vector<float>{3.0f, 1.0f})[0], 2.0f);
  EXPECT_FLOAT_EQ(net.forward(std::vector<float>{1.0f, 3.0f})[0], 0.0f);  // clamped
}

TEST(MlpForward, BatchMatchesSingle) {
  const Mlp net({3, 5, 2}, 9);
  Matrix x(4, 3);
  std::mt19937 rng(2);
  std::uniform_real_distribution<float> u(-1, 1);
  for (auto& v : x.data()) v = u(rng);
  const Matrix scores = net.forward(x);
  for (std::size_t r = 0; r < 4; ++r) {
    const auto single = net.forward(std::vector<float>{x(r, 0), x(r, 1), x(r, 2)});
    for (std::size_t c = 0; c < 2; ++c) EXPECT_FLOAT_EQ(scores(r, c), single[c]);
  }
}

TEST(MlpForward, RejectsBadInputSize) {
  const Mlp net({3, 2}, 1);
  EXPECT_THROW(net.forward(std::vector<float>{1.0f, 2.0f}), std::invalid_argument);
}

TEST(Softmax, NormalizesAndOrders) {
  const auto p = softmax({1.0f, 2.0f, 3.0f});
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0f, 1e-6);
  EXPECT_LT(p[0], p[1]);
  EXPECT_LT(p[1], p[2]);
  // Large scores must not overflow.
  const auto q = softmax({1000.0f, 1001.0f});
  EXPECT_NEAR(q[0] + q[1], 1.0f, 1e-6);
}

TEST(Argmax, PicksFirstMax) {
  EXPECT_EQ(argmax({0.1f, 0.9f, 0.3f}), 1);
  EXPECT_EQ(argmax({2.0f}), 0);
  EXPECT_THROW(argmax({}), std::invalid_argument);
}

TEST(Trainer, LearnsXor) {
  Mlp net({2, 8, 2}, 3);
  Matrix x(4, 2);
  x(0, 0) = 0;
  x(0, 1) = 0;
  x(1, 0) = 0;
  x(1, 1) = 1;
  x(2, 0) = 1;
  x(2, 1) = 0;
  x(3, 0) = 1;
  x(3, 1) = 1;
  const std::vector<int> y{0, 1, 1, 0};
  TrainConfig cfg;
  cfg.epochs = 800;
  cfg.batch_size = 4;
  cfg.learning_rate = 5e-3f;
  cfg.l2 = 0.0f;
  const TrainResult r = train(net, x, y, cfg);
  EXPECT_EQ(accuracy(net, x, y), 1.0);
  EXPECT_LT(r.final_loss, 0.1f);
  EXPECT_GT(r.epoch_loss.front(), r.epoch_loss.back());
}

TEST(Trainer, LearnsGaussianBlobs) {
  std::mt19937 rng(4);
  std::normal_distribution<float> g(0.0f, 0.6f);
  const int per = 100;
  Matrix x(3 * per, 2);
  std::vector<int> y;
  const float centers[3][2] = {{0, 0}, {3, 0}, {0, 3}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < per; ++i) {
      const std::size_t r = static_cast<std::size_t>(c * per + i);
      x(r, 0) = centers[c][0] + g(rng);
      x(r, 1) = centers[c][1] + g(rng);
      y.push_back(c);
    }
  }
  Mlp net({2, 12, 3}, 5);
  TrainConfig cfg;
  cfg.epochs = 120;
  cfg.batch_size = 16;
  cfg.learning_rate = 3e-3f;
  train(net, x, y, cfg);
  EXPECT_GT(accuracy(net, x, y), 0.95);
  EXPECT_LT(mean_cross_entropy(net, x, y), 0.3);
}

TEST(Trainer, RejectsMismatchedSizes) {
  Mlp net({2, 2}, 1);
  Matrix x(3, 2);
  const std::vector<int> y{0, 1};
  EXPECT_THROW(train(net, x, y, {}), std::invalid_argument);
  EXPECT_THROW(accuracy(net, x, y), std::invalid_argument);
  EXPECT_THROW(mean_cross_entropy(net, x, y), std::invalid_argument);

  const std::vector<int> ok{0, 1, 0};
  TrainConfig zero_batch;
  zero_batch.batch_size = 0;  // would never advance
  EXPECT_THROW(train(net, x, ok, zero_batch), std::invalid_argument);
  for (const std::vector<int>& bad : {std::vector<int>{0, 2, 1}, std::vector<int>{-1, 0, 1}}) {
    EXPECT_THROW(train(net, x, bad, {}), std::invalid_argument);  // label outside [0, 2)
    EXPECT_THROW(mean_cross_entropy(net, x, bad), std::invalid_argument);
  }
  const Matrix wide(3, 3);  // rows wider than input_dim()
  EXPECT_THROW(train(net, wide, ok, {}), std::invalid_argument);
  EXPECT_THROW(mean_cross_entropy(net, wide, ok), std::invalid_argument);
  EXPECT_EQ(net.parameters(), Mlp({2, 2}, 1).parameters());  // nothing trained
}

TEST(Matrix, MatmulAndTranspose) {
  Matrix a(2, 3);
  float v = 1;
  for (auto& e : a.data()) e = v++;
  const Matrix at = a.transposed();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_FLOAT_EQ(at(2, 1), a(1, 2));
  const Matrix p = a.matmul(at);  // 2x2
  EXPECT_FLOAT_EQ(p(0, 0), 1 + 4 + 9);
  EXPECT_FLOAT_EQ(p(0, 1), 4 + 10 + 18);
  EXPECT_THROW(a.matmul(a), std::invalid_argument);
  EXPECT_THROW(a.at(2, 0), std::out_of_range);
}

}  // namespace
}  // namespace dp::nn
