// Round-trip exactness tests for the ".dpnetz" compressed model container,
// across the paper's full format grid, plus the transparent-loading contract:
// nn::load_quantized, runtime::Model::load and ModelRegistry::load_file all
// read a compressed artifact with zero caller changes.

#include "codec/container.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "nn/io.hpp"
#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "runtime/session.hpp"
#include "serve/registry.hpp"

namespace dp::codec {
namespace {

nn::Mlp random_net(std::uint32_t seed = 123) {
  nn::Mlp net({5, 7, 3}, seed);
  std::mt19937 rng(seed + 1);
  std::uniform_real_distribution<float> u(-2.0f, 2.0f);
  for (auto& layer : net.layers()) {
    for (auto& w : layer.weights.data()) w = u(rng);
    for (auto& b : layer.bias) b = u(rng);
  }
  return net;
}

void expect_identical(const nn::QuantizedNetwork& a, const nn::QuantizedNetwork& b) {
  ASSERT_TRUE(a.format == b.format) << a.format.name() << " vs " << b.format.name();
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_EQ(a.layers[l].fan_in, b.layers[l].fan_in);
    EXPECT_EQ(a.layers[l].fan_out, b.layers[l].fan_out);
    EXPECT_EQ(a.layers[l].activation, b.layers[l].activation);
    EXPECT_EQ(a.layers[l].weights, b.layers[l].weights) << "layer " << l;
    EXPECT_EQ(a.layers[l].bias, b.layers[l].bias) << "layer " << l;
  }
}

TEST(DpnetzContainer, RoundTripsBitExactlyAcrossThePaperFormatGrid) {
  // Every format of the paper's sweep, n in [5, 8]: the acceptance bar is
  // bit-identical patterns, not merely equivalent values.
  const nn::Mlp net = random_net();
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      const nn::QuantizedNetwork q = nn::quantize(net, fmt);
      const std::vector<std::uint8_t> bytes = encode_network(q);
      ASSERT_TRUE(has_dpnetz_magic(bytes)) << fmt.name();
      const nn::QuantizedNetwork back = decode_network(bytes);
      expect_identical(q, back);
    }
  }
}

TEST(DpnetzContainer, RoundTripsSpecialPatternsAndDegenerateShapes) {
  // Hand-built networks the quantizer would never emit: NaR-like all-ones
  // patterns, extreme values, single-neuron layers, identity activations.
  for (const num::Format fmt :
       {num::Format{num::PositFormat{8, 0}}, num::Format{num::FixedFormat{5, 3}}}) {
    const std::uint32_t mask = (1u << fmt.total_bits()) - 1u;
    nn::QuantizedNetwork q{fmt, {}, {}};
    nn::QuantizedLayer l1;
    l1.fan_in = 1;
    l1.fan_out = 4;
    l1.weights = {0u, mask, 1u << (fmt.total_bits() - 1), mask >> 1};
    l1.bias = {mask, 0u, 1u, mask};
    l1.activation = nn::Activation::kReLU;
    nn::QuantizedLayer l2;
    l2.fan_in = 4;
    l2.fan_out = 1;
    l2.weights = {1u, 2u, 4u, 8u};
    l2.bias = {0u};
    l2.activation = nn::Activation::kIdentity;
    q.layers = {l1, l2};
    const nn::QuantizedNetwork back = decode_network(encode_network(q));
    expect_identical(q, back);
  }
}

TEST(DpnetzContainer, EncodeRejectsPatternsOutsideTheFormatWidth) {
  nn::QuantizedNetwork q{num::Format{num::PositFormat{5, 1}}, {}, {}};
  nn::QuantizedLayer l;
  l.fan_in = 1;
  l.fan_out = 1;
  l.weights = {0x20u};  // bit 5 set in a 5-bit format
  l.bias = {0u};
  q.layers = {l};
  EXPECT_THROW(encode_network(q), CodecError);
}

TEST(DpnetzContainer, StreamAndFileSpellingsRoundTrip) {
  const nn::QuantizedNetwork q =
      nn::quantize(random_net(), num::Format{num::PositFormat{8, 1}});

  std::stringstream ss;
  save_compressed(ss, q);
  expect_identical(q, load_compressed(ss));

  const std::string path = ::testing::TempDir() + "/container_roundtrip.dpnetz";
  save_compressed(path, q);
  expect_identical(q, load_compressed(path));
  EXPECT_THROW(load_compressed(::testing::TempDir() + "/does_not_exist.dpnetz"),
               std::runtime_error);
}

TEST(DpnetzContainer, NnIoFacadeAndMagicSniffAreTransparent) {
  // save_quantized_compressed + load_quantized(path): the loader dispatches
  // on the magic, so deployment scripts need no format flag.
  const nn::QuantizedNetwork q =
      nn::quantize(random_net(7), num::Format{num::FloatFormat{4, 3}});
  const std::string path = ::testing::TempDir() + "/facade_roundtrip.dpnetz";
  nn::save_quantized_compressed(path, q);
  expect_identical(q, nn::load_quantized_compressed(path));
  expect_identical(q, nn::load_quantized(path));  // sniffed, not told

  // And the text format still loads through the same entry point.
  const std::string text_path = ::testing::TempDir() + "/facade_roundtrip.dpnet";
  nn::save_quantized(text_path, q);
  expect_identical(q, nn::load_quantized(text_path));
}

TEST(DpnetzContainer, CompressedArtifactIsSmallerThanText) {
  // The reason the format exists. Gate on every paper-grid model at n = 8
  // (the widest patterns, the hardest case for the coder vs the text file).
  const nn::Mlp net = random_net();
  for (const num::Format& fmt : num::paper_format_grid(8)) {
    const nn::QuantizedNetwork q = nn::quantize(net, fmt);
    std::stringstream text;
    nn::save_quantized(text, q);
    const std::vector<std::uint8_t> compressed = encode_network(q);
    EXPECT_LT(compressed.size(), text.str().size()) << fmt.name();
  }
}

TEST(DpnetzContainer, RuntimeModelLoadsCompressedArtifactsTransparently) {
  // quantize -> save compressed -> Model::load, then check the loaded model
  // infers bit-identically to one built in process.
  const nn::Mlp net = random_net(31);
  const num::Format fmt{num::PositFormat{8, 1}};
  const nn::QuantizedNetwork q = nn::quantize(net, fmt);
  const std::string path = ::testing::TempDir() + "/model_load.dpnetz";
  nn::save_quantized_compressed(path, q);

  const std::shared_ptr<const runtime::Model> shipped = runtime::Model::load(path);
  ASSERT_TRUE(shipped->format() == fmt);
  runtime::Session loaded(shipped);
  runtime::Session direct(runtime::Model::create(q, runtime::ForwardPath::kStep));
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x{u(rng), u(rng), u(rng), u(rng), u(rng)};
    const auto a = loaded.forward_bits(x);
    const auto b = direct.forward_bits(x);
    ASSERT_EQ(std::vector<std::uint32_t>(a.begin(), a.end()),
              std::vector<std::uint32_t>(b.begin(), b.end()));
  }
}

TEST(DpnetzContainer, RegistryLoadFileHotLoadsCompressedArtifacts) {
  // The operator's hot-reload spelling, pointed straight at a .dpnetz file.
  const nn::QuantizedNetwork q =
      nn::quantize(random_net(17), num::Format{num::FixedFormat{8, 6}});
  const std::string path = ::testing::TempDir() + "/registry_load.dpnetz";
  nn::save_quantized_compressed(path, q);

  serve::ModelRegistry registry;
  registry.load_file("iris-fixed8", path);
  const std::shared_ptr<const runtime::Model> m = registry.model("iris-fixed8");
  ASSERT_NE(m, nullptr);
  EXPECT_TRUE(m->format() == q.format);
  expect_identical(q, m->network());
  registry.shutdown_all();
}

}  // namespace
}  // namespace dp::codec
