#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numeric/encode_table.hpp"

namespace dp::nn {

namespace {

QuantizedLayer quantize_layer(const DenseLayer& layer, const num::Format& fmt) {
  const num::Encoder encode(fmt);
  QuantizedLayer ql;
  ql.fan_in = layer.fan_in();
  ql.fan_out = layer.fan_out();
  ql.activation = layer.activation;
  ql.weights.reserve(layer.weights.size());
  for (const float w : layer.weights.data()) ql.weights.push_back(encode(w));
  ql.bias.reserve(layer.bias.size());
  for (const float b : layer.bias) ql.bias.push_back(encode(b));
  return ql;
}

}  // namespace

double QuantizedNetwork::bits_per_weight() const {
  std::size_t params = 0;
  double bits = 0;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const std::size_t n = layers[li].weights.size() + layers[li].bias.size();
    params += n;
    bits += static_cast<double>(n) * layer_format(li).total_bits();
  }
  return params == 0 ? 0.0 : bits / static_cast<double>(params);
}

void validate_layer_formats(const QuantizedNetwork& net) {
  if (net.layer_formats.empty()) return;
  if (net.layer_formats.size() != net.layers.size()) {
    throw std::invalid_argument(
        "QuantizedNetwork: layer_formats must have one entry per layer (got " +
        std::to_string(net.layer_formats.size()) + " for " +
        std::to_string(net.layers.size()) + " layers)");
  }
  if (!(net.layer_formats.front() == net.format)) {
    throw std::invalid_argument(
        "QuantizedNetwork: format must equal layer_formats[0] (the input format)");
  }
}

QuantizedNetwork quantize(const Mlp& net, const num::Format& fmt) {
  QuantizedNetwork out{fmt, {}, {}};
  for (const auto& layer : net.layers()) {
    out.layers.push_back(quantize_layer(layer, fmt));
  }
  return out;
}

QuantizedNetwork quantize(const Mlp& net, std::span<const num::Format> fmts) {
  if (fmts.size() != net.layers().size()) {
    throw std::invalid_argument("nn::quantize: need one format per layer (got " +
                                std::to_string(fmts.size()) + " for " +
                                std::to_string(net.layers().size()) + " layers)");
  }
  QuantizedNetwork out{fmts.front(), {}, {}};
  for (std::size_t li = 0; li < fmts.size(); ++li) {
    out.layers.push_back(quantize_layer(net.layers()[li], fmts[li]));
  }
  // Canonical form: an all-equal table IS the uniform network (one state, one
  // artifact encoding — legacy files stay byte-for-byte reproducible).
  const bool uniform = std::all_of(fmts.begin(), fmts.end(),
                                   [&](const num::Format& f) { return f == fmts.front(); });
  if (!uniform) out.layer_formats.assign(fmts.begin(), fmts.end());
  return out;
}

QuantError quantization_error(const Mlp& net, const num::Format& fmt) {
  const num::Encoder encode(fmt);
  QuantError e;
  std::size_t count = 0;
  for (const float p : net.parameters()) {
    const double v = static_cast<double>(p);
    const double q = fmt.to_double(encode(p));
    const double err = std::fabs(q - v);
    e.mean_abs += err;
    e.max_abs = std::max(e.max_abs, err);
    ++count;
  }
  if (count > 0) e.mean_abs /= static_cast<double>(count);
  return e;
}

}  // namespace dp::nn
