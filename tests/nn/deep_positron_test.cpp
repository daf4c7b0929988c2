// Tests for quantization and the EMAC-backed Deep Positron network end to
// end: quantize -> runtime::Model -> runtime::Session, the path every bench
// and example takes. The BatchInference cases pin the batched entry points
// against the single-sample ones for every family and pool size; the
// FusedPath cases pin the default path against the step recurrence.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "nn/quantize.hpp"
#include "nn/trainer.hpp"
#include "runtime/session.hpp"

namespace dp::nn {
namespace {

using runtime::BatchView;
using runtime::Model;
using runtime::Session;

/// A Session over `net` quantized into `fmt`, with a pool of `threads`.
Session session_for(const Mlp& net, const num::Format& fmt, std::size_t threads = 1) {
  runtime::SessionOptions opts;
  opts.num_threads = threads;
  return Session(Model::create(quantize(net, fmt)), opts);
}

std::vector<double> to_vec(std::span<const double> s) { return {s.begin(), s.end()}; }

Mlp tiny_trained_net() {
  // 2-in, 2-class separable problem.
  std::mt19937 rng(8);
  std::normal_distribution<float> g(0.0f, 0.3f);
  Matrix x(100, 2);
  std::vector<int> y;
  for (int i = 0; i < 100; ++i) {
    const int c = i % 2;
    x(static_cast<std::size_t>(i), 0) = (c == 0 ? 0.25f : 0.75f) + g(rng) * 0.2f;
    x(static_cast<std::size_t>(i), 1) = (c == 0 ? 0.75f : 0.25f) + g(rng) * 0.2f;
    y.push_back(c);
  }
  Mlp net({2, 6, 2}, 10);
  TrainConfig cfg;
  cfg.epochs = 150;
  cfg.batch_size = 10;
  train(net, x, y, cfg);
  return net;
}

TEST(Quantize, PreservesShapeAndActivation) {
  const Mlp net({3, 5, 2}, 1);
  const QuantizedNetwork q = quantize(net, num::Format{num::PositFormat{8, 1}});
  ASSERT_EQ(q.layers.size(), 2u);
  EXPECT_EQ(q.layers[0].fan_in, 3u);
  EXPECT_EQ(q.layers[0].fan_out, 5u);
  EXPECT_EQ(q.layers[0].weights.size(), 15u);
  EXPECT_EQ(q.layers[0].bias.size(), 5u);
  EXPECT_EQ(q.layers[0].activation, Activation::kReLU);
  EXPECT_EQ(q.layers[1].activation, Activation::kIdentity);
  EXPECT_EQ(q.input_dim(), 3u);
  EXPECT_EQ(q.output_dim(), 2u);
}

TEST(Quantize, WideFormatIsNearLossless) {
  const Mlp net = tiny_trained_net();
  const QuantError e16 = quantization_error(net, num::Format{num::PositFormat{16, 1}});
  const QuantError e8 = quantization_error(net, num::Format{num::PositFormat{8, 1}});
  const QuantError e5 = quantization_error(net, num::Format{num::PositFormat{5, 1}});
  EXPECT_LT(e16.max_abs, 1e-3);
  EXPECT_LT(e16.mean_abs, e8.mean_abs);
  EXPECT_LT(e8.mean_abs, e5.mean_abs);
}

TEST(Quantize, PositBeatsFixedOnTrainedWeights) {
  // Fig. 2's premise: trained weights cluster in [-1, 1], where posit's
  // tapered precision is densest; an 8-bit fixed-point format with the same
  // total width represents them with more error.
  const Mlp net = tiny_trained_net();
  const QuantError ep = quantization_error(net, num::Format{num::PositFormat{8, 0}});
  const QuantError ex = quantization_error(net, num::Format{num::FixedFormat{8, 4}});
  EXPECT_LT(ep.mean_abs, ex.mean_abs);
}

TEST(DeepPositron, WidePositMatchesFloat32Predictions) {
  const Mlp net = tiny_trained_net();
  Session engine = session_for(net, num::Format{num::PositFormat{16, 2}});
  std::mt19937 rng(12);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  int agree = 0;
  const int total = 300;
  for (int i = 0; i < total; ++i) {
    const double a = u(rng), b = u(rng);
    const int pf = net.predict({static_cast<float>(a), static_cast<float>(b)});
    const int pq = engine.predict(std::vector<double>{a, b});
    agree += (pf == pq);
  }
  EXPECT_GE(agree, total - 3) << "16-bit posit inference should track float32";
}

TEST(DeepPositron, ScoresTrackFloat32Closely) {
  const Mlp net = tiny_trained_net();
  Session engine = session_for(net, num::Format{num::PositFormat{16, 2}});
  const std::vector<double> x{0.3, 0.6};
  const auto ref = net.forward(std::vector<float>{0.3f, 0.6f});
  const std::vector<double> got = to_vec(engine.forward(x));
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], static_cast<double>(ref[i]), 0.02) << i;
  }
}

class DeepPositronFormats : public ::testing::TestWithParam<num::Format> {};

TEST_P(DeepPositronFormats, RunsAndStaysFinite) {
  const Mlp net = tiny_trained_net();
  Session engine = session_for(net, GetParam());
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x{u(rng), u(rng)};
    const auto out = engine.forward(x);
    ASSERT_EQ(out.size(), 2u);
    for (const double v : out) EXPECT_TRUE(std::isfinite(v)) << GetParam().name();
  }
}

TEST_P(DeepPositronFormats, ReluOutputsAreNonNegativeInHiddenLayer) {
  // Force ReLU on the readout layer so the hidden-layer activation is what
  // the Session hands back.
  const num::Format fmt = GetParam();
  Mlp hidden_only({2, 4, 4}, 5);
  hidden_only.layers()[1].activation = Activation::kReLU;
  Session relu_engine = session_for(hidden_only, fmt);
  std::mt19937 rng(4);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x{u(rng), u(rng)};
    for (const double v : relu_engine.forward(x)) EXPECT_GE(v, 0.0) << fmt.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, DeepPositronFormats,
                         ::testing::Values(num::Format{num::PositFormat{8, 0}},
                                           num::Format{num::PositFormat{8, 2}},
                                           num::Format{num::PositFormat{5, 1}},
                                           num::Format{num::FloatFormat{4, 3}},
                                           num::Format{num::FloatFormat{3, 1}},
                                           num::Format{num::FixedFormat{8, 4}},
                                           num::Format{num::FixedFormat{5, 3}}),
                         [](const auto& info) {
                           std::string s = info.param.name();
                           for (char& c : s) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return s;
                         });

TEST(DeepPositron, AccuracyDegradesGracefullyWithWidth) {
  const Mlp net = tiny_trained_net();
  std::mt19937 rng(6);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> xs;
  std::vector<int> ys;
  for (int i = 0; i < 200; ++i) {
    const int c = i % 2;
    xs.push_back((c == 0 ? 0.25 : 0.75) + (u(rng) - 0.5) * 0.1);
    xs.push_back((c == 0 ? 0.75 : 0.25) + (u(rng) - 0.5) * 0.1);
    ys.push_back(c);
  }
  const BatchView view(xs, 2);
  const double a16 = session_for(net, num::Format{num::PositFormat{16, 1}}).accuracy(view, ys);
  const double a8 = session_for(net, num::Format{num::PositFormat{8, 0}}).accuracy(view, ys);
  EXPECT_GT(a16, 0.97);
  EXPECT_GT(a8, 0.9);
  EXPECT_GE(a16 + 1e-12, a8 - 0.05);
}

TEST(DeepPositron, RejectsBadInput) {
  const Mlp net({2, 2}, 1);
  Session engine = session_for(net, num::Format{num::PositFormat{8, 1}});
  EXPECT_THROW(engine.forward(std::vector<double>{1.0}), std::invalid_argument);
  const std::vector<double> one_row{1.0, 2.0};
  EXPECT_THROW(engine.accuracy(BatchView(one_row, 2), std::vector<int>{0, 1}),
               std::invalid_argument);
}

TEST(DeepPositron, MacsPerInference) {
  const Mlp net({4, 10, 6, 3}, 1);
  const auto model = Model::create(quantize(net, num::Format{num::PositFormat{8, 1}}));
  EXPECT_EQ(model->macs_per_inference(), 4u * 10 + 10 * 6 + 6 * 3);
}

// --- Batched inference -------------------------------------------------------

// An untrained (random-init) net is enough here: batch vs single-sample
// equality is a property of the execution engine, not of the weights.
Mlp random_net() { return Mlp({6, 16, 8, 3}, /*seed=*/42); }

std::vector<double> random_batch(std::size_t rows, std::size_t dim, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

std::vector<num::Format> formats_under_test() {
  return {num::Format{num::PositFormat{8, 1}}, num::Format{num::PositFormat{7, 0}},
          num::Format{num::FloatFormat{4, 3}}, num::Format{num::FixedFormat{8, 6}}};
}

TEST(BatchInference, PredictBatchMatchesScalarAcrossFormatsAndThreads) {
  const Mlp net = random_net();
  const std::vector<double> flat = random_batch(67, net.input_dim(), 5);
  const BatchView xs(flat, net.input_dim());
  for (const num::Format& fmt : formats_under_test()) {
    Session single = session_for(net, fmt);
    std::vector<int> scalar;
    for (std::size_t i = 0; i < xs.rows(); ++i) scalar.push_back(single.predict(xs.row(i)));
    for (const std::size_t threads : {1u, 2u, 8u}) {
      EXPECT_EQ(session_for(net, fmt, threads).predict(xs), scalar)
          << fmt.name() << " with " << threads << " threads";
    }
  }
}

TEST(BatchInference, ForwardBitsBatchIsBitExactAcrossThreadCounts) {
  const Mlp net = random_net();
  const std::vector<double> flat = random_batch(41, net.input_dim(), 9);
  const BatchView xs(flat, net.input_dim());
  for (const num::Format& fmt : formats_under_test()) {
    Session single = session_for(net, fmt);
    std::vector<std::uint32_t> scalar;
    for (std::size_t i = 0; i < xs.rows(); ++i) {
      const auto bits = single.forward_bits(xs.row(i));
      scalar.insert(scalar.end(), bits.begin(), bits.end());
    }
    for (const std::size_t threads : {1u, 2u, 8u}) {
      EXPECT_EQ(session_for(net, fmt, threads).forward_bits(xs).data, scalar)
          << fmt.name() << " with " << threads << " threads";
    }
  }
}

TEST(BatchInference, ForwardBatchMatchesScalarScores) {
  const Mlp net = random_net();
  const std::vector<double> flat = random_batch(23, net.input_dim(), 3);
  const BatchView xs(flat, net.input_dim());
  Session engine = session_for(net, num::Format{num::PositFormat{8, 1}}, 8);
  const runtime::BatchResult<double> batched = engine.forward(xs);
  ASSERT_EQ(batched.rows(), xs.rows());
  for (std::size_t i = 0; i < xs.rows(); ++i) {
    const std::vector<double> want = to_vec(batched.row(i));
    EXPECT_EQ(to_vec(engine.forward(xs.row(i))), want) << "row " << i;
  }
}

TEST(BatchInference, ScratchReuseMatchesFreshScratch) {
  // One Session reuses its per-slot scratch across calls; a fresh Session
  // per row must see the same bits.
  const Mlp net = random_net();
  const std::vector<double> flat = random_batch(16, net.input_dim(), 7);
  const BatchView xs(flat, net.input_dim());
  const num::Format fmt{num::FloatFormat{4, 3}};
  const auto model = Model::create(quantize(net, fmt));
  Session reused(model);
  for (std::size_t i = 0; i < xs.rows(); ++i) {
    const auto a = reused.forward_bits(xs.row(i));
    const std::vector<std::uint32_t> got(a.begin(), a.end());
    Session fresh(model);
    const auto b = fresh.forward_bits(xs.row(i));
    EXPECT_EQ(got, std::vector<std::uint32_t>(b.begin(), b.end())) << "row " << i;
  }
}

TEST(BatchInference, AccuracyIsThreadCountInvariant) {
  const Mlp net = random_net();
  const std::vector<double> flat = random_batch(50, net.input_dim(), 11);
  const BatchView xs(flat, net.input_dim());
  std::vector<int> ys;
  for (std::size_t i = 0; i < xs.rows(); ++i) ys.push_back(static_cast<int>(i % 3));
  const num::Format fmt{num::PositFormat{8, 0}};
  const double serial = session_for(net, fmt).accuracy(xs, ys);
  EXPECT_EQ(session_for(net, fmt, 2).accuracy(xs, ys), serial);
  EXPECT_EQ(session_for(net, fmt, 8).accuracy(xs, ys), serial);
}

TEST(BatchInference, EmptyBatchAndDefaultThreads) {
  const Mlp net = random_net();
  const num::Format fmt{num::PositFormat{8, 1}};
  const BatchView empty(std::span<const double>{}, net.input_dim());
  EXPECT_TRUE(session_for(net, fmt, 4).predict(empty).empty());
  // num_threads = 0 (hardware concurrency) must work on any machine.
  const std::vector<double> flat = random_batch(5, net.input_dim(), 1);
  EXPECT_EQ(session_for(net, fmt, 0).predict(BatchView(flat, net.input_dim())).size(), 5u);
}

TEST(BatchInference, BadRowSizeThrowsFromWorkerPool) {
  // A batch whose row width is not the model's input width is refused
  // before any tile reaches a pool slot, at every pool size.
  const Mlp net = random_net();
  const num::Format fmt{num::PositFormat{8, 1}};
  const std::vector<double> flat = random_batch(12, net.input_dim() - 1, 2);
  const BatchView narrow(flat, net.input_dim() - 1);
  EXPECT_THROW(session_for(net, fmt, 4).predict(narrow), std::invalid_argument);
  EXPECT_THROW(session_for(net, fmt, 1).predict(narrow), std::invalid_argument);
}

// The default path (the blocked kernels, step fallback) must be
// bit-identical to the paper's per-MAC step() recurrence for every format in
// the sweep grid and at every pool size: it is an execution-engine choice,
// never a numerics change.
TEST(FusedPath, BitIdenticalToStepPathAcrossSweepGridAndThreads) {
  const Mlp net = random_net();
  const std::vector<double> flat = random_batch(24, net.input_dim(), 13);
  const BatchView xs(flat, net.input_dim());
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      const QuantizedNetwork qnet = quantize(net, fmt);
      const auto fast = Model::create(qnet);
      const auto legacy = Model::create(qnet, runtime::ForwardPath::kStep);
      ASSERT_EQ(fast->forward_path(), runtime::ForwardPath::kBlocked);
      ASSERT_EQ(legacy->forward_path(), runtime::ForwardPath::kStep);
      const std::vector<std::uint32_t> reference = Session(legacy).forward_bits(xs).data;
      for (const std::size_t threads : {1u, 2u, 8u}) {
        runtime::SessionOptions opts;
        opts.num_threads = threads;
        EXPECT_EQ(Session(fast, opts).forward_bits(xs).data, reference)
            << fmt.name() << " default vs step at " << threads << " threads";
        EXPECT_EQ(Session(legacy, opts).forward_bits(xs).data, reference)
            << fmt.name() << " step at " << threads << " threads";
      }
    }
  }
}

TEST(FusedPath, ScalarOverloadsUseFusedPathConsistently) {
  // Single-sample calls on the default path agree with the step path.
  const Mlp net = random_net();
  const std::vector<double> flat = random_batch(8, net.input_dim(), 21);
  const BatchView xs(flat, net.input_dim());
  const num::Format fmt{num::PositFormat{8, 1}};
  Session fast(Model::create(quantize(net, fmt)));
  Session legacy(Model::create(quantize(net, fmt), runtime::ForwardPath::kStep));
  for (std::size_t i = 0; i < xs.rows(); ++i) {
    const auto got = fast.forward_bits(xs.row(i));
    const std::vector<std::uint32_t> fast_bits(got.begin(), got.end());
    const auto want = legacy.forward_bits(xs.row(i));
    EXPECT_EQ(fast_bits, std::vector<std::uint32_t>(want.begin(), want.end())) << "row " << i;
    EXPECT_EQ(fast.predict(xs.row(i)), legacy.predict(xs.row(i))) << "row " << i;
  }
}

}  // namespace
}  // namespace dp::nn
