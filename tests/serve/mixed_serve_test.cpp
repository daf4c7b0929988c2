// Mixed-precision models through the whole serving stack: a mixed .dpnetz
// artifact reloaded via runtime::Model::load, registered, hot-swapped and
// queried over real TCP must answer bit-identically to a direct Session —
// over raw payloads AND entropy-coded v4 payloads, whose request and
// response widths differ for a mixed model (input vs output format). Plus
// the swap guard: a reload may not change the model's OUTPUT format even
// when the input format and the dimensions still match, because connected
// clients decode replies with the output format they captured at connect.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "nn/io.hpp"
#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "runtime/session.hpp"

namespace dp::serve {
namespace {

using namespace std::chrono_literals;

nn::Mlp small_net(std::uint32_t seed = 42) { return nn::Mlp({6, 16, 8, 3}, seed); }

/// posit<8,0> -> float<4,3> -> fixed<6,3>: all three kinds in one model,
/// with input width 8 and output width 6 so every direction-confused decode
/// width would be caught, not coincidentally right.
std::vector<num::Format> mixed_formats() {
  return {num::Format{num::PositFormat{8, 0}}, num::Format{num::FloatFormat{4, 3}},
          num::Format{num::FixedFormat{6, 3}}};
}

std::vector<double> random_rows(std::size_t rows, std::size_t dim, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

ServerOptions tcp_options() {
  ServerOptions opts;
  opts.batcher.max_batch = 4;
  opts.tcp_port = 0;
  return opts;
}

TEST(MixedServe, ShippedArtifactServedBitIdenticalRawAndCompressed) {
  // Offline half: quantize mixed, ship the v2 container.
  const nn::Mlp net = small_net();
  const auto path =
      std::filesystem::temp_directory_path() / "dp-mixed-serve-test.dpnetz";
  nn::save_quantized_compressed(path.string(), nn::quantize(net, mixed_formats()));

  // Serving half: reload, register, serve over TCP.
  const auto model = runtime::Model::load(path.string());
  ASSERT_TRUE(model->mixed_format());
  ASSERT_NE(model->input_format().total_bits(), model->output_format().total_bits());
  ModelRegistry registry;
  registry.load("mixed", model, tcp_options().batcher);
  Server server(registry, tcp_options());

  runtime::Session direct(model);
  Client raw = connect_tcp(server.tcp_port(), model, "mixed");
  ClientOptions copts;
  copts.compress = true;
  Client packed = connect_tcp(server.tcp_port(), model, "mixed", copts);

  const std::size_t dim = model->input_dim();
  const std::vector<double> xs = random_rows(24, dim, 7);
  for (std::size_t r = 0; r < 24; ++r) {
    const std::span<const double> x(xs.data() + r * dim, dim);
    const auto want_bits = direct.forward_bits(x);
    const Reply raw_reply = raw.forward_bits(x);
    const Reply packed_reply = packed.forward_bits(x);
    ASSERT_TRUE(raw_reply.ok()) << "row " << r;
    ASSERT_TRUE(packed_reply.ok()) << "row " << r;
    const std::vector<std::uint32_t> want(want_bits.begin(), want_bits.end());
    EXPECT_EQ(raw_reply.bits, want) << "raw row " << r;
    EXPECT_EQ(packed_reply.bits, want) << "compressed v4 row " << r;
    EXPECT_EQ(raw.predict(x), direct.predict(x)) << "row " << r;
    EXPECT_EQ(packed.predict(x), direct.predict(x)) << "row " << r;
  }
  std::filesystem::remove(path);
}

TEST(MixedServe, HotSwapKeepsServingBitIdentical) {
  const nn::Mlp net = small_net();
  const auto model_v1 = runtime::Model::create(nn::quantize(net, mixed_formats()));
  // Same formats, retrained weights: a legal swap.
  const auto model_v2 =
      runtime::Model::create(nn::quantize(small_net(43), mixed_formats()));

  ModelRegistry registry;
  registry.load("m", model_v1, tcp_options().batcher);
  Server server(registry, tcp_options());
  Client client = connect_tcp(server.tcp_port(), model_v1, "m");

  const std::vector<double> xs = random_rows(4, model_v1->input_dim(), 11);
  const std::span<const double> x(xs.data(), model_v1->input_dim());
  runtime::Session direct_v1(model_v1);
  {
    const auto want = direct_v1.forward_bits(x);
    EXPECT_EQ(client.forward_bits(x).bits,
              std::vector<std::uint32_t>(want.begin(), want.end()));
  }
  registry.load("m", model_v2, tcp_options().batcher);
  runtime::Session direct_v2(model_v2);
  {
    // Same connection, post-swap: answers now come from the new weights.
    const auto want = direct_v2.forward_bits(x);
    EXPECT_EQ(client.forward_bits(x).bits,
              std::vector<std::uint32_t>(want.begin(), want.end()));
  }
}

TEST(MixedServe, SwapGuardPinsTheOutputFormat) {
  const nn::Mlp net = small_net();
  const auto mixed = runtime::Model::create(nn::quantize(net, mixed_formats()));
  ModelRegistry registry;
  registry.load("m", mixed, {});

  // Same input format (posit<8,0>), same dimensions, different OUTPUT
  // format: before per-layer formats this passed the signature check — now
  // it must be rejected, or connected clients would decode replies with a
  // stale width.
  std::vector<num::Format> tail_changed = mixed_formats();
  tail_changed.back() = num::Format{num::FixedFormat{5, 2}};
  const auto bad = runtime::Model::create(nn::quantize(net, tail_changed));
  ASSERT_EQ(bad->input_format(), mixed->input_format());
  ASSERT_NE(bad->output_format().total_bits(), mixed->output_format().total_bits());
  EXPECT_THROW(registry.load("m", bad, {}), std::invalid_argument);

  // Interior layers may move freely: endpoints unchanged, swap allowed.
  std::vector<num::Format> interior_changed = mixed_formats();
  interior_changed[1] = num::Format{num::PositFormat{5, 1}};
  const auto ok = runtime::Model::create(nn::quantize(net, interior_changed));
  EXPECT_NO_THROW(registry.load("m", ok, {}));

  // A uniform reload of a mixed entry changes the output format too.
  const auto uniform =
      runtime::Model::create(nn::quantize(net, mixed_formats().front()));
  EXPECT_THROW(registry.load("m", uniform, {}), std::invalid_argument);

  // unload() + load() must not bypass the output-format guard either.
  EXPECT_TRUE(registry.unload("m"));
  EXPECT_THROW(registry.load("m", uniform, {}), std::invalid_argument);
  EXPECT_NO_THROW(registry.load("m", ok, {}));
}

}  // namespace
}  // namespace dp::serve
