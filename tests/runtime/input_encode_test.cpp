// Model::forward_tile_into's two input stages, on the blocked and the step
// path. The double entry encodes through the input format's shared encode
// table (n <= 8): feed it the encoder's hard cases — ±0, ±Inf, NaN,
// ±DBL_MAX, ±denorm_min, ±minpos/2 and the neighbours of every rounding
// boundary — and compare the readout with the same model fed the generic
// encoder's patterns decoded back to doubles (a representable value encodes
// to itself). The pattern entry reads each word as the value it decodes to:
// feed it every pattern of every paper-grid format, each again with garbage
// above bit n, and compare with the double entry fed those values.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "runtime/model.hpp"

namespace dp::runtime {
namespace {

/// One layer, width x width, identity weights and zero bias: each readout
/// is its own input, re-rounded, so a wrong input pattern shows.
nn::QuantizedNetwork identity_net(const num::Format& fmt, std::size_t width) {
  nn::QuantizedLayer layer;
  layer.fan_in = width;
  layer.fan_out = width;
  layer.activation = nn::Activation::kIdentity;
  layer.weights.assign(width * width, fmt.from_double(0.0));
  for (std::size_t j = 0; j < width; ++j) layer.weights[j * width + j] = fmt.from_double(1.0);
  layer.bias.assign(width, fmt.from_double(0.0));
  return {fmt, {layer}, {}};
}

/// The hard cases for `fmt`, NaN only where the format has a non-real.
std::vector<double> specials(const num::Format& fmt) {
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> xs{0.0,     -0.0, inf,  -inf, DBL_MAX, -DBL_MAX, tiny, -tiny,
                         fmt.min_positive() / 2, -fmt.min_positive() / 2};
  if (fmt.kind() != num::Kind::kFixed) xs.push_back(std::numeric_limits<double>::quiet_NaN());
  // Each side of the rounding boundary between neighbouring values: the
  // midpoint and one ulp either side of it.
  for (std::uint32_t p = 1; p + 1 < (std::uint32_t{1} << fmt.total_bits()); ++p) {
    const double a = fmt.to_double(p);
    const double b = fmt.to_double(p + 1);
    if (!std::isfinite(a) || !std::isfinite(b)) continue;
    const double mid = a + (b - a) / 2;
    xs.insert(xs.end(), {std::nextafter(mid, -inf), mid, std::nextafter(mid, inf)});
  }
  return xs;
}

/// What a wire client may send in `fmt`: every pattern (for n > 8, a
/// sample that keeps each end of both halves), then each again with
/// garbage above bit n.
std::vector<std::uint32_t> wire_words(const num::Format& fmt) {
  const std::uint32_t count = std::uint32_t{1} << fmt.total_bits();
  std::vector<std::uint32_t> words;
  if (count <= 256) {
    for (std::uint32_t p = 0; p < count; ++p) words.push_back(p);
  } else {
    const std::uint32_t stride = count / 128;
    for (std::uint32_t p = 0; p < count; p += stride) {
      words.insert(words.end(), {p, p + 1, p + stride - 1});
    }
  }
  const std::size_t clean = words.size();
  for (std::size_t i = 0; i < clean; ++i) words.push_back(words[i] | 0xABCD0000u);
  return words;
}

/// The readout of one row of doubles (BatchView) or patterns (PatternView).
template <typename T>
std::vector<std::uint32_t> readout(const Model& model, const std::vector<T>& row) {
  const std::size_t width = row.size();
  Scratch scratch = model.make_scratch();
  std::vector<std::uint32_t> out(width);
  model.forward_tile_into(BasicBatchView<T>(row, width), 0, 1, scratch, out.data());
  return out;
}

TEST(InputEncode, TableEncodesLikeGenericEncoderOnBothPaths) {
  for (const num::Format& fmt :
       {num::Format{num::PositFormat{8, 0}}, num::Format{num::PositFormat{8, 3}},
        num::Format{num::PositFormat{5, 1}}, num::Format{num::FloatFormat{4, 3}},
        num::Format{num::FloatFormat{3, 2}}, num::Format{num::FixedFormat{8, 5}},
        num::Format{num::FixedFormat{6, 3}}}) {
    const std::vector<double> row = specials(fmt);
    std::vector<double> pre_encoded;
    for (const double x : row) pre_encoded.push_back(fmt.to_double(fmt.from_double(x)));
    for (const ForwardPath path : {ForwardPath::kBlocked, ForwardPath::kStep}) {
      const auto model = Model::create(identity_net(fmt, row.size()), path);
      EXPECT_EQ(readout(*model, row), readout(*model, pre_encoded))
          << fmt.name() << (path == ForwardPath::kStep ? " step" : " blocked");
    }
  }
}

TEST(InputEncode, PatternEntryReadsEachWordAsItsDecodedValue) {
  std::vector<num::Format> formats;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) formats.push_back(fmt);
  }
  formats.push_back(num::Format{num::PositFormat{16, 1}});
  for (const num::Format& fmt : formats) {
    const std::vector<std::uint32_t> words = wire_words(fmt);
    const std::uint32_t mask = (std::uint32_t{1} << fmt.total_bits()) - 1;
    std::vector<double> values;
    for (const std::uint32_t w : words) values.push_back(fmt.to_double(w & mask));
    for (const ForwardPath path : {ForwardPath::kBlocked, ForwardPath::kStep}) {
      const auto model = Model::create(identity_net(fmt, words.size()), path);
      EXPECT_EQ(readout(*model, words), readout(*model, values))
          << fmt.name() << (path == ForwardPath::kStep ? " step" : " blocked");
    }
  }
}

TEST(InputEncode, FixedPointNaNStillThrows) {
  const num::Format fmt{num::FixedFormat{8, 5}};
  const std::vector<double> row{0.5, std::numeric_limits<double>::quiet_NaN()};
  for (const ForwardPath path : {ForwardPath::kBlocked, ForwardPath::kStep}) {
    const auto model = Model::create(identity_net(fmt, row.size()), path);
    EXPECT_THROW(readout(*model, row), std::domain_error);
  }
}

}  // namespace
}  // namespace dp::runtime
