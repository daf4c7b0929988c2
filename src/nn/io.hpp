#pragma once
// Serialization of trained float32 networks and quantized networks to a
// small self-describing text format ("dpnet"). Lets examples and downstream
// users train once and reload, and ship quantized weight files to an
// accelerator toolchain.

#include <iosfwd>
#include <string>

#include "nn/mlp.hpp"
#include "nn/quantize.hpp"

namespace dp::nn {

/// Writes "dpnet-f32 v1" format: topology line, then per layer the
/// activation, weights (row-major) and biases, in full float precision.
void save_network(std::ostream& os, const Mlp& net);
void save_network(const std::string& path, const Mlp& net);

/// Parses what save_network wrote. Throws std::runtime_error on malformed
/// input.
Mlp load_network(std::istream& is);
Mlp load_network(const std::string& path);

/// Writes "dpnet-quant v1": format descriptor plus hex patterns per layer.
void save_quantized(std::ostream& os, const QuantizedNetwork& net);
void save_quantized(const std::string& path, const QuantizedNetwork& net);
QuantizedNetwork load_quantized(std::istream& is);
/// Loads a quantized network from a file of EITHER format: a ".dpnetz"
/// entropy-coded container (sniffed by magic) or the "dpnet-quant" text
/// format. runtime::Model::load goes through here, so the quantize -> ship ->
/// hot-reload path reads compressed artifacts transparently.
QuantizedNetwork load_quantized(const std::string& path);

/// Writes the ".dpnetz" entropy-coded container (codec/container.hpp):
/// range-coded per-layer symbol tapes plus a CRC-32 over the decoded
/// payload, typically severalfold smaller than save_quantized output and
/// guaranteed to reload bit-identical through load_quantized(path)
/// (docs/compression.md).
void save_quantized_compressed(const std::string& path, const QuantizedNetwork& net);

}  // namespace dp::nn
