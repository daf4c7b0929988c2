// Differential acceptance suite for mixed-precision models: a model whose
// layers carry DIFFERENT formats must be bit-identical to a stitched
// reference that runs each layer as its own single-format model and
// re-encodes activations at every boundary — across the paper format grid
// (n = 5..8), ragged topologies, blocked vs step path, every kernel the
// Session can dispatch, and pool sizes {1, 2, 8}. Every assertion carries a
// full reproducer (seed, per-layer formats, topology, kernel, pool) so a
// failure is a bug report, not a scavenger hunt.

#include "runtime/model.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "runtime/session.hpp"

namespace dp::runtime {
namespace {

/// Every format of the paper grids at total widths 5..8 — the pool the fuzz
/// draws per-layer assignments from.
std::vector<num::Format> fuzz_pool() {
  std::vector<num::Format> pool;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& f : num::paper_format_grid(n)) pool.push_back(f);
  }
  return pool;
}

struct FuzzCase {
  std::uint32_t seed = 0;
  std::vector<std::size_t> topology;
  std::vector<num::Format> formats;  // one per layer
};

/// Deterministic case generation: ragged topology (2..4 layers, dims 2..12)
/// and per-layer formats drawn from the pool, re-drawn until at least two
/// layers genuinely differ (the point of the suite).
FuzzCase make_case(std::uint32_t seed, const std::vector<num::Format>& pool) {
  std::mt19937 rng(seed);
  FuzzCase fc;
  fc.seed = seed;
  const std::size_t nlayers = 2 + rng() % 3;
  fc.topology.push_back(3 + rng() % 7);  // input dim 3..9
  for (std::size_t l = 0; l < nlayers; ++l) fc.topology.push_back(2 + rng() % 11);
  for (std::size_t l = 0; l < nlayers; ++l) fc.formats.push_back(pool[rng() % pool.size()]);
  bool mixed = false;
  for (const num::Format& f : fc.formats) mixed = mixed || !(f == fc.formats.front());
  if (!mixed) fc.formats.back() = pool[(rng() % (pool.size() - 1)) + 1];
  return fc;
}

std::string describe(const FuzzCase& fc, const char* kernel, std::size_t pool_size) {
  std::ostringstream os;
  os << "reproducer: seed=" << fc.seed << " topology={";
  for (std::size_t i = 0; i < fc.topology.size(); ++i) {
    os << fc.topology[i] << (i + 1 < fc.topology.size() ? "," : "");
  }
  os << "} formats={";
  for (std::size_t i = 0; i < fc.formats.size(); ++i) {
    os << fc.formats[i].name() << (i + 1 < fc.formats.size() ? "," : "");
  }
  os << "} kernel=" << kernel << " pool=" << pool_size;
  return os.str();
}

std::vector<double> random_rows(std::size_t rows, std::size_t dim, std::uint32_t seed) {
  std::mt19937 rng(seed ^ 0x9e3779b9u);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

/// The stitched reference: layer i runs as its own UNIFORM single-layer
/// model in formats[i] on the step path; activations cross each boundary as
/// doubles, which is exactly num::convert for every finite value (RNE
/// from_double of an exactly-representable double is the identity, and
/// these finite fuzz inputs never produce NaR/NaN mid-net — the specials
/// have direct num::convert unit tests). The readout is the last layer's
/// raw patterns.
std::vector<std::uint32_t> stitched_forward(const nn::QuantizedNetwork& mixed,
                                            std::span<const double> x) {
  std::vector<double> cur(x.begin(), x.end());
  std::vector<std::uint32_t> bits;
  for (std::size_t li = 0; li < mixed.layers.size(); ++li) {
    const num::Format fmt = mixed.layer_format(li);
    nn::QuantizedNetwork single{fmt, {mixed.layers[li]}, {}};
    Session layer(Model::create(std::move(single), ForwardPath::kStep));
    const std::span<const std::uint32_t> out = layer.forward_bits(cur);
    bits.assign(out.begin(), out.end());
    cur.clear();
    for (const std::uint32_t b : bits) cur.push_back(fmt.to_double(b));
  }
  return bits;
}

TEST(MixedModelDifferential, SingleRowsMatchStitchedReferenceAcrossGrid) {
  const std::vector<num::Format> pool = fuzz_pool();
  for (std::uint32_t seed = 1; seed <= 24; ++seed) {
    const FuzzCase fc = make_case(seed, pool);
    const nn::Mlp net(fc.topology, /*seed=*/seed);
    const nn::QuantizedNetwork qnet = nn::quantize(net, fc.formats);
    ASSERT_FALSE(qnet.uniform_format()) << describe(fc, "-", 0);
    const auto model = Model::create(qnet);
    Session session(model);

    const std::size_t dim = net.input_dim();
    const std::vector<double> xs = random_rows(8, dim, seed);
    for (std::size_t r = 0; r < 8; ++r) {
      const std::span<const double> x(xs.data() + r * dim, dim);
      const std::span<const std::uint32_t> got = session.forward_bits(x);
      const std::vector<std::uint32_t> want = stitched_forward(qnet, x);
      ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), want)
          << describe(fc, model->kernel_name(), 1) << " row=" << r;
    }
  }
}

TEST(MixedModelDifferential, StepPathMatchesBlockedPath) {
  const std::vector<num::Format> pool = fuzz_pool();
  for (std::uint32_t seed = 31; seed <= 42; ++seed) {
    const FuzzCase fc = make_case(seed, pool);
    const nn::Mlp net(fc.topology, seed);
    const nn::QuantizedNetwork qnet = nn::quantize(net, fc.formats);
    const auto blocked = Model::create(qnet, ForwardPath::kBlocked);
    Session bs(blocked);
    Session ss(Model::create(qnet, ForwardPath::kStep));

    const std::size_t dim = net.input_dim();
    const std::vector<double> xs = random_rows(6, dim, seed);
    const BatchView view(xs, dim);
    ASSERT_EQ(bs.forward_bits(view).data, ss.forward_bits(view).data)
        << describe(fc, blocked->kernel_name(), 1);
  }
}

TEST(MixedModelDifferential, BlockedSessionsMatchStitchedAcrossPools) {
  const std::vector<num::Format> pool = fuzz_pool();
  for (std::uint32_t seed = 51; seed <= 62; ++seed) {
    const FuzzCase fc = make_case(seed, pool);
    const nn::Mlp net(fc.topology, seed);
    const nn::QuantizedNetwork qnet = nn::quantize(net, fc.formats);
    const auto model = Model::create(qnet);

    const std::size_t dim = net.input_dim();
    const std::size_t tile = model->preferred_tile();
    // Ragged around the tile: 1, tile-1, tile+3 rows (tile may be 1 when a
    // layer has no blocked kernel — the shapes stay valid either way).
    const std::vector<std::size_t> shapes{1, tile > 1 ? tile - 1 : 2, tile + 3};
    const std::size_t max_rows = tile + 3;
    const std::vector<double> xs = random_rows(max_rows, dim, seed);

    for (const std::size_t pool_size : {1u, 2u, 8u}) {
      SessionOptions sopts;
      sopts.num_threads = pool_size;
      Session session(model, sopts);
      for (const std::size_t rows : shapes) {
        const BatchView view(std::span<const double>(xs).first(rows * dim), dim);
        const BatchResult<std::uint32_t> got = session.forward_bits(view);
        for (std::size_t r = 0; r < rows; ++r) {
          const std::vector<std::uint32_t> want =
              stitched_forward(qnet, view.row(r));
          const std::vector<std::uint32_t> got_row(
              got.data.begin() + static_cast<std::ptrdiff_t>(r * got.row_width),
              got.data.begin() + static_cast<std::ptrdiff_t>((r + 1) * got.row_width));
          ASSERT_EQ(got_row, want)
              << describe(fc, model->kernel_name(), pool_size)
              << " rows=" << rows << " row=" << r;
        }
      }
    }
  }
}

TEST(MixedModel, AccessorsReportPerLayerFormats) {
  const nn::Mlp net({4, 6, 3}, 7);
  const std::vector<num::Format> fmts{num::Format{num::PositFormat{8, 0}},
                                      num::Format{num::FixedFormat{6, 3}}};
  const auto model = Model::create(nn::quantize(net, fmts));
  EXPECT_TRUE(model->mixed_format());
  EXPECT_EQ(model->format(), fmts[0]);
  EXPECT_EQ(model->input_format(), fmts[0]);
  EXPECT_EQ(model->output_format(), fmts[1]);
  // 4*6+6 = 30 params at 8 bits, 6*3+3 = 21 params at 6 bits.
  EXPECT_NEAR(model->bits_per_weight(), (30.0 * 8 + 21.0 * 6) / 51.0, 1e-12);
}

TEST(MixedModel, MalformedLayerFormatTablesRejected) {
  const nn::Mlp net({4, 6, 3}, 7);
  const num::Format p8{num::PositFormat{8, 0}};
  const num::Format f6{num::FixedFormat{6, 3}};

  // Wrong quantize arity.
  EXPECT_THROW(nn::quantize(net, std::vector<num::Format>{p8}), std::invalid_argument);

  // A hand-built table with the wrong count / wrong front entry must be
  // rejected by Model construction before any kernel or EMAC is built.
  nn::QuantizedNetwork bad_count = nn::quantize(net, std::vector<num::Format>{p8, f6});
  bad_count.layer_formats.push_back(f6);
  EXPECT_THROW(Model{bad_count}, std::invalid_argument);

  nn::QuantizedNetwork bad_front = nn::quantize(net, std::vector<num::Format>{p8, f6});
  bad_front.layer_formats.front() = f6;
  EXPECT_THROW(Model{bad_front}, std::invalid_argument);
}

TEST(MixedModel, AllEqualAssignmentCanonicalizesToUniform) {
  const nn::Mlp net({4, 6, 3}, 7);
  const num::Format p8{num::PositFormat{8, 0}};
  const nn::QuantizedNetwork mixed_spelling =
      nn::quantize(net, std::vector<num::Format>{p8, p8});
  const nn::QuantizedNetwork uniform_spelling = nn::quantize(net, p8);
  EXPECT_TRUE(mixed_spelling.uniform_format());
  EXPECT_TRUE(mixed_spelling.layer_formats.empty());
  EXPECT_EQ(mixed_spelling.layers[0].weights, uniform_spelling.layers[0].weights);
  EXPECT_EQ(mixed_spelling.layers[1].weights, uniform_spelling.layers[1].weights);
}

}  // namespace
}  // namespace dp::runtime
