#include "nn/io.hpp"

#include <array>
#include <fstream>
#include <iomanip>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>

// nn/io is the serialization facade: the compressed container itself lives
// one layer up in codec/ (which consumes nn::QuantizedNetwork), and these
// entry points forward to it so callers keep one header for every artifact
// format (docs/architecture.md).
#include "codec/container.hpp"

namespace dp::nn {

namespace {

const char* activation_name(Activation a) {
  return a == Activation::kReLU ? "relu" : "identity";
}

Activation parse_activation(const std::string& s) {
  if (s == "relu") return Activation::kReLU;
  if (s == "identity") return Activation::kIdentity;
  throw std::runtime_error("dpnet: unknown activation '" + s + "'");
}

void expect_token(std::istream& is, const std::string& want) {
  std::string got;
  if (!(is >> got) || got != want) {
    throw std::runtime_error("dpnet: expected '" + want + "', got '" + got + "'");
  }
}

std::string format_tag(const num::Format& fmt) {
  switch (fmt.kind()) {
    case num::Kind::kPosit:
      return "posit " + std::to_string(fmt.posit().n) + " " + std::to_string(fmt.posit().es);
    case num::Kind::kFloat:
      return "float " + std::to_string(fmt.flt().we) + " " + std::to_string(fmt.flt().wf);
    case num::Kind::kFixed:
      return "fixed " + std::to_string(fmt.fixed().n) + " " + std::to_string(fmt.fixed().q);
  }
  throw std::logic_error("format_tag");
}

num::Format parse_format(std::istream& is) {
  std::string kind;
  int a = 0, b = 0;
  if (!(is >> kind >> a >> b)) throw std::runtime_error("dpnet: bad format line");
  if (kind == "posit") return num::PositFormat{a, b};
  if (kind == "float") return num::FloatFormat{a, b};
  if (kind == "fixed") return num::FixedFormat{a, b};
  throw std::runtime_error("dpnet: unknown format kind '" + kind + "'");
}

}  // namespace

void save_network(std::ostream& os, const Mlp& net) {
  os << "dpnet-f32 v1\n";
  os << "layers " << net.layers().size() << "\n";
  os << std::setprecision(std::numeric_limits<float>::max_digits10);
  for (const auto& layer : net.layers()) {
    os << "layer " << layer.fan_out() << " " << layer.fan_in() << " "
       << activation_name(layer.activation) << "\n";
    for (std::size_t j = 0; j < layer.fan_out(); ++j) {
      for (std::size_t i = 0; i < layer.fan_in(); ++i) {
        os << layer.weights(j, i) << (i + 1 < layer.fan_in() ? ' ' : '\n');
      }
    }
    for (std::size_t j = 0; j < layer.bias.size(); ++j) {
      os << layer.bias[j] << (j + 1 < layer.bias.size() ? ' ' : '\n');
    }
  }
  if (!os) throw std::runtime_error("dpnet: write failed");
}

void save_network(const std::string& path, const Mlp& net) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("dpnet: cannot open " + path);
  save_network(os, net);
  os.flush();
  if (!os) throw std::runtime_error("dpnet: write failed for " + path);
}

Mlp load_network(std::istream& is) {
  expect_token(is, "dpnet-f32");
  expect_token(is, "v1");
  expect_token(is, "layers");
  std::size_t nlayers = 0;
  if (!(is >> nlayers) || nlayers == 0) throw std::runtime_error("dpnet: bad layer count");

  // Reconstruct via a dummy topology then overwrite.
  std::vector<DenseLayer> layers;
  for (std::size_t l = 0; l < nlayers; ++l) {
    expect_token(is, "layer");
    std::size_t out = 0, in = 0;
    std::string act;
    if (!(is >> out >> in >> act)) throw std::runtime_error("dpnet: bad layer header");
    DenseLayer layer;
    layer.activation = parse_activation(act);
    layer.weights = Matrix(out, in);
    layer.bias.assign(out, 0.0f);
    for (std::size_t j = 0; j < out; ++j) {
      for (std::size_t i = 0; i < in; ++i) {
        if (!(is >> layer.weights(j, i))) throw std::runtime_error("dpnet: bad weight");
      }
    }
    for (std::size_t j = 0; j < out; ++j) {
      if (!(is >> layer.bias[j])) throw std::runtime_error("dpnet: bad bias");
    }
    layers.push_back(std::move(layer));
  }
  // Build an Mlp with matching topology, then replace its parameters.
  std::vector<std::size_t> sizes{layers.front().fan_in()};
  for (const auto& l : layers) sizes.push_back(l.fan_out());
  Mlp net(sizes, 0);
  net.layers() = std::move(layers);
  return net;
}

Mlp load_network(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("dpnet: cannot open " + path);
  return load_network(is);
}

void save_quantized(std::ostream& os, const QuantizedNetwork& net) {
  validate_layer_formats(net);
  // Version is content-determined, not caller-chosen: a uniform network
  // always writes the v1 header a pre-mixed-precision reader understands
  // (and byte-for-byte what it always wrote); only a genuinely mixed
  // network writes v2 with its per-layer table. load_quantized enforces the
  // same bijection on the way back in.
  const bool mixed = !net.uniform_format();
  os << (mixed ? "dpnet-quant v2\n" : "dpnet-quant v1\n");
  os << "format " << format_tag(net.format) << "\n";
  os << "layers " << net.layers.size() << "\n";
  if (mixed) {
    for (std::size_t li = 0; li < net.layer_formats.size(); ++li) {
      os << "layerformat " << li << " " << format_tag(net.layer_formats[li]) << "\n";
    }
  }
  for (const auto& layer : net.layers) {
    os << "layer " << layer.fan_out << " " << layer.fan_in << " "
       << activation_name(layer.activation) << "\n"
       << std::hex;
    for (std::size_t i = 0; i < layer.weights.size(); ++i) {
      os << layer.weights[i] << (((i + 1) % 16 == 0) ? '\n' : ' ');
    }
    os << "\n";
    for (std::size_t i = 0; i < layer.bias.size(); ++i) {
      os << layer.bias[i] << (i + 1 < layer.bias.size() ? ' ' : '\n');
    }
    // basefield is shared stream state (it would leak into a subsequent
    // read or write of the same stream): always restore decimal.
    os << std::dec;
  }
  if (!os) throw std::runtime_error("dpnet: write failed");
}

void save_quantized(const std::string& path, const QuantizedNetwork& net) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("dpnet: cannot open " + path);
  save_quantized(os, net);
  // Deferred write errors (e.g. a full disk) would otherwise be swallowed by
  // the ofstream destructor and a truncated file reported as success.
  os.flush();
  if (!os) throw std::runtime_error("dpnet: write failed for " + path);
}

QuantizedNetwork load_quantized(std::istream& is) {
  is >> std::dec;  // defend against inherited basefield state
  expect_token(is, "dpnet-quant");
  std::string version;
  if (!(is >> version)) throw std::runtime_error("dpnet: missing version");
  if (version != "v1" && version != "v2") {
    throw std::runtime_error("dpnet: unsupported version '" + version + "'");
  }
  expect_token(is, "format");
  const num::Format fmt = parse_format(is);
  expect_token(is, "layers");
  std::size_t nlayers = 0;
  if (!(is >> nlayers) || nlayers == 0) throw std::runtime_error("dpnet: bad layer count");
  QuantizedNetwork net{fmt, {}, {}};
  if (version == "v2") {
    // The whole per-layer table is parsed and validated here, BEFORE any
    // weight storage is sized from the file's say-so: hostile format
    // parameters throw in the Format constructor, a short table trips
    // expect_token on the following "layer" keyword, and indices must be
    // exactly 0..n-1 in order.
    net.layer_formats.reserve(nlayers);
    for (std::size_t li = 0; li < nlayers; ++li) {
      expect_token(is, "layerformat");
      std::size_t idx = 0;
      if (!(is >> idx) || idx != li) {
        throw std::runtime_error("dpnet: bad layerformat index (want " +
                                 std::to_string(li) + ")");
      }
      net.layer_formats.push_back(parse_format(is));
    }
    if (!(net.layer_formats.front() == fmt)) {
      throw std::runtime_error("dpnet: v2 format line must equal layerformat 0");
    }
    bool uniform = true;
    for (const num::Format& f : net.layer_formats) uniform = uniform && f == fmt;
    if (uniform) {
      // One state, one encoding: uniform content is a v1 artifact. Accepting
      // it here would create two byte encodings of the same network and
      // break the save/load bijection the bit-flip tests pin down.
      throw std::runtime_error("dpnet: v2 artifact with a uniform format table");
    }
  }
  for (std::size_t l = 0; l < nlayers; ++l) {
    expect_token(is, "layer");
    QuantizedLayer layer;
    std::string act;
    if (!(is >> layer.fan_out >> layer.fan_in >> act)) {
      throw std::runtime_error("dpnet: bad layer header");
    }
    layer.activation = parse_activation(act);
    layer.weights.resize(layer.fan_in * layer.fan_out);
    layer.bias.resize(layer.fan_out);
    is >> std::hex;
    for (auto& w : layer.weights) {
      if (!(is >> w)) throw std::runtime_error("dpnet: bad weight pattern");
    }
    for (auto& b : layer.bias) {
      if (!(is >> b)) throw std::runtime_error("dpnet: bad bias pattern");
    }
    is >> std::dec;
    net.layers.push_back(std::move(layer));
  }
  return net;
}

QuantizedNetwork load_quantized(const std::string& path) {
  // Sniff the first bytes: a .dpnetz container starts with its magic, the
  // text format with "dpnet-quant". One loader serves both, so shipping a
  // compressed artifact needs no caller changes anywhere above this.
  {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) throw std::runtime_error("dpnet: cannot open " + path);
    std::array<char, 4> head{};
    probe.read(head.data(), head.size());
    if (probe.gcount() == static_cast<std::streamsize>(head.size()) &&
        codec::has_dpnetz_magic(std::span(reinterpret_cast<const std::uint8_t*>(head.data()),
                                          head.size()))) {
      return codec::load_compressed(path);
    }
  }
  std::ifstream is(path);
  if (!is) throw std::runtime_error("dpnet: cannot open " + path);
  return load_quantized(is);
}

void save_quantized_compressed(const std::string& path, const QuantizedNetwork& net) {
  codec::save_compressed(path, net);
}

}  // namespace dp::nn
