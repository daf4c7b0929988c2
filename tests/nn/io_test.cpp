// Round-trip and malformed-input tests for network serialization.

#include "nn/io.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "runtime/session.hpp"

namespace dp::nn {
namespace {

Mlp random_net() {
  Mlp net({5, 7, 3}, 123);
  std::mt19937 rng(9);
  std::uniform_real_distribution<float> u(-2.0f, 2.0f);
  for (auto& layer : net.layers()) {
    for (auto& w : layer.weights.data()) w = u(rng);
    for (auto& b : layer.bias) b = u(rng);
  }
  return net;
}

TEST(NetworkIo, Float32RoundTripIsExact) {
  const Mlp net = random_net();
  std::stringstream ss;
  save_network(ss, net);
  const Mlp back = load_network(ss);
  ASSERT_EQ(back.layers().size(), net.layers().size());
  EXPECT_EQ(back.parameters(), net.parameters());
  for (std::size_t l = 0; l < net.layers().size(); ++l) {
    EXPECT_EQ(back.layers()[l].activation, net.layers()[l].activation);
  }
}

TEST(NetworkIo, RoundTripPreservesPredictions) {
  const Mlp net = random_net();
  std::stringstream ss;
  save_network(ss, net);
  const Mlp back = load_network(ss);
  std::mt19937 rng(2);
  std::uniform_real_distribution<float> u(0.0f, 1.0f);
  for (int i = 0; i < 100; ++i) {
    std::vector<float> x{u(rng), u(rng), u(rng), u(rng), u(rng)};
    EXPECT_EQ(back.predict(x), net.predict(x));
  }
}

TEST(NetworkIo, QuantizedRoundTrip) {
  const Mlp net = random_net();
  for (const num::Format fmt :
       {num::Format{num::PositFormat{8, 1}}, num::Format{num::FloatFormat{4, 3}},
        num::Format{num::FixedFormat{8, 6}}}) {
    const QuantizedNetwork q = quantize(net, fmt);
    std::stringstream ss;
    save_quantized(ss, q);
    const QuantizedNetwork back = load_quantized(ss);
    EXPECT_EQ(back.format.name(), fmt.name());
    ASSERT_EQ(back.layers.size(), q.layers.size());
    for (std::size_t l = 0; l < q.layers.size(); ++l) {
      EXPECT_EQ(back.layers[l].weights, q.layers[l].weights) << fmt.name();
      EXPECT_EQ(back.layers[l].bias, q.layers[l].bias) << fmt.name();
      EXPECT_EQ(back.layers[l].fan_in, q.layers[l].fan_in);
      EXPECT_EQ(back.layers[l].activation, q.layers[l].activation);
    }
  }
}

TEST(NetworkIo, FileRoundTrip) {
  const Mlp net = random_net();
  const std::string path = ::testing::TempDir() + "/dpnet_io_test.dpnet";
  save_network(path, net);
  const Mlp back = load_network(path);
  EXPECT_EQ(back.parameters(), net.parameters());
  EXPECT_THROW(load_network(std::string("/nonexistent/dir/x.dpnet")), std::runtime_error);
}

TEST(NetworkIo, QuantizedRoundTripWithDoubleDigitDims) {
  // Regression: dimensions like 16 parse differently in hex and dec; a
  // basefield flag leaking from save (std::hex is shared stream state)
  // corrupted the reload of any layer wider than 9.
  Mlp net({4, 16, 12, 2}, 3);
  const num::Format fmt = num::PositFormat{8, 0};
  const QuantizedNetwork q = quantize(net, fmt);
  std::stringstream ss;
  save_quantized(ss, q);
  const QuantizedNetwork back = load_quantized(ss);
  ASSERT_EQ(back.layers.size(), 3u);
  EXPECT_EQ(back.layers[0].fan_out, 16u);
  EXPECT_EQ(back.layers[1].fan_out, 12u);
  for (std::size_t l = 0; l < q.layers.size(); ++l) {
    EXPECT_EQ(back.layers[l].weights, q.layers[l].weights);
  }
}

TEST(NetworkIo, QuantizedFileRoundTrip) {
  const Mlp net = random_net();
  const QuantizedNetwork q = quantize(net, num::Format{num::PositFormat{8, 1}});
  const std::string path = ::testing::TempDir() + "/dpnet_io_test.dpnet-quant";
  save_quantized(path, q);
  const QuantizedNetwork back = load_quantized(path);
  ASSERT_EQ(back.layers.size(), q.layers.size());
  for (std::size_t l = 0; l < q.layers.size(); ++l) {
    EXPECT_EQ(back.layers[l].weights, q.layers[l].weights);
    EXPECT_EQ(back.layers[l].bias, q.layers[l].bias);
  }
  EXPECT_THROW(load_quantized(std::string("/nonexistent/dir/x.dpnet-quant")),
               std::runtime_error);
  EXPECT_THROW(save_quantized(std::string("/nonexistent/dir/x.dpnet-quant"), q),
               std::runtime_error);
}

// A quantized file must survive the patterns real quantized nets contain at
// the edges: exact zero, posit NaR, and the saturation patterns RNE clips
// to. The reloaded net must also behave identically (NaR propagation
// included), not just compare equal as bits.
TEST(NetworkIo, QuantizedRoundTripPreservesSpecialPatterns) {
  struct Case {
    num::Format fmt;
    std::vector<std::uint32_t> weights;  // fan_in 3, fan_out 2
  };
  const num::PositFormat p8{8, 1};
  const num::FloatFormat f43{4, 3};
  const num::FixedFormat x86{8, 6};
  const std::vector<Case> cases{
      // posit: zero, NaR, maxpos (0x7f), -maxpos (0x81), minpos (0x01)
      {num::Format{p8},
       {p8.zero_pattern(), p8.nar_pattern(), 0x7fu, 0x81u, 0x01u, p8.nar_pattern()}},
      // minifloat: +0, -0, saturated +max, saturated -max
      {num::Format{f43},
       {num::Format{f43}.from_double(0.0), num::Format{f43}.from_double(-0.0),
        num::Format{f43}.from_double(1e30), num::Format{f43}.from_double(-1e30),
        num::Format{f43}.from_double(1.0), num::Format{f43}.from_double(-1.0)}},
      // fixed: zero, raw_max, raw_min (two's complement saturation ends)
      {num::Format{x86},
       {num::Format{x86}.from_double(0.0), num::Format{x86}.from_double(1e30),
        num::Format{x86}.from_double(-1e30), num::Format{x86}.from_double(0.5),
        num::Format{x86}.from_double(-0.5), num::Format{x86}.from_double(1e30)}}};

  for (const Case& c : cases) {
    QuantizedNetwork q{c.fmt, {}};
    QuantizedLayer layer;
    layer.fan_in = 3;
    layer.fan_out = 2;
    layer.weights = c.weights;
    layer.bias = {c.weights[0], c.weights[1]};
    layer.activation = Activation::kIdentity;
    q.layers.push_back(layer);

    std::stringstream ss;
    save_quantized(ss, q);
    const QuantizedNetwork back = load_quantized(ss);
    ASSERT_EQ(back.layers.size(), 1u) << c.fmt.name();
    EXPECT_EQ(back.layers[0].weights, q.layers[0].weights) << c.fmt.name();
    EXPECT_EQ(back.layers[0].bias, q.layers[0].bias) << c.fmt.name();

    // Same bits in, same bits out: the reloaded net must run bit-identically
    // (NaR weights poison their neuron the same way on both sides).
    runtime::Session original(runtime::Model::create(q));
    runtime::Session reloaded(runtime::Model::create(back));
    const std::vector<double> probe{0.25, -1.0, 3.0};
    const auto want = original.forward_bits(probe);
    const auto got = reloaded.forward_bits(probe);
    EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
              std::vector<std::uint32_t>(want.begin(), want.end()))
        << c.fmt.name();
  }
}

TEST(NetworkIo, RejectsMalformedQuantizedInput) {
  const auto rejects = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(load_quantized(ss), std::runtime_error) << text;
  };
  rejects("");                                                   // empty
  rejects("dpnet-f32 v1\n");                                     // wrong magic
  rejects("dpnet-quant v2\nformat posit 8 1\nlayers 1\n");       // wrong version
  rejects("dpnet-quant v1\nformat unum 8 1\nlayers 1\n");        // unknown format kind
  rejects("dpnet-quant v1\nformat posit eight 1\nlayers 1\n");   // non-numeric width
  rejects("dpnet-quant v1\nformat posit 8 1\nlayers 0\n");       // zero layers
  rejects("dpnet-quant v1\nformat posit 8 1\nlayers 1\n"
          "layer 1 2 swish\n1 2\n3\n");                          // unknown activation
  rejects("dpnet-quant v1\nformat posit 8 1\nlayers 1\n"
          "layer 2 2 relu\n1 2 3\n");                            // truncated weights
  rejects("dpnet-quant v1\nformat posit 8 1\nlayers 1\n"
          "layer 1 2 relu\n1 2\n");                              // truncated bias
  rejects("dpnet-quant v1\nformat posit 8 1\nlayers 2\n"
          "layer 1 2 relu\n1 2\n3\n");                           // missing second layer
}

TEST(NetworkIo, RejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW(load_network(empty), std::runtime_error);

  std::stringstream wrong_magic("dpnet-f99 v1\n");
  EXPECT_THROW(load_network(wrong_magic), std::runtime_error);

  std::stringstream truncated("dpnet-f32 v1\nlayers 1\nlayer 2 2 relu\n1.0 2.0\n");
  EXPECT_THROW(load_network(truncated), std::runtime_error);

  std::stringstream bad_act("dpnet-f32 v1\nlayers 1\nlayer 1 1 swish\n1.0\n0.0\n");
  EXPECT_THROW(load_network(bad_act), std::runtime_error);

  std::stringstream bad_fmt("dpnet-quant v1\nformat unum 8 1\nlayers 1\n");
  EXPECT_THROW(load_quantized(bad_fmt), std::runtime_error);
}

}  // namespace
}  // namespace dp::nn
