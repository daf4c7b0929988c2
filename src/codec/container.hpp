#pragma once
// The ".dpnetz" compressed model container: an entropy-coded, CRC-guarded
// serialization of nn::QuantizedNetwork — what ships over links and flash
// budgets that the raw "dpnet-quant" text format would blow
// (docs/compression.md has the full byte table and tuning guide).
//
// Layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic "DPNZ"
//   4       1     container version: 1 uniform, 2 mixed precision
//   5       1     format kind (0 posit, 1 float, 2 fixed)
//   6       1     format param a (posit n / float we / fixed n)
//   7       1     format param b (posit es / float wf / fixed q)
//   8       1     symbol width W in bits — must equal Format::total_bits()
//   9       1     reserved, 0
//   10      2     layer count L (1..kMaxLayers)
//   [v2 only] 4*L per-layer format table: kind, a, b, width — entry 0 must
//                 repeat the header format, the entries must NOT all be
//                 equal (uniform content IS a v1 container; the encodings
//                 are a bijection), and every entry is validated before any
//                 layer storage is allocated
//   12(+4L) ...   L layer sections (below), back to back; in a v2 container
//                 layer i's sections are coded at table entry i's width
//   end-4   4     CRC-32 over the decoded CONTENT: kind, params, width and
//                 layer count (header bytes 5..11 sans reserved), then the
//                 v2 format table verbatim when present, then per layer
//                 fan_out/fan_in (LE u32) + activation byte followed by
//                 every weight pattern then every bias pattern as LE u32
//
// One layer section:
//
//   +0      4     fan_out
//   +4      4     fan_in
//   +8      1     activation (0 identity, 1 relu)
//   +9      1     weights symbol model, must be 1 (adaptive)
//   +10     1     bias symbol model, must be 1 (adaptive)
//   +11     1     reserved, 0
//   +12     4     weights coded length, then exactly that many coded bytes
//   +..     4     bias coded length, then exactly that many coded bytes
//
// Each section is coded with a fresh adaptive bit-tree model
// (symbol_model.hpp): a layer's weight tape is one skewed distribution over
// regime/fraction structure, and the model's contexts converge on it within
// a small prefix, with no table to ship.
//
// The CRC is over the decoded content, not the coded bytes, so it certifies
// the property the consumers actually need: the network that comes out —
// format, shapes, activations and every pattern — is the network that went
// in, bit for bit. (Covering the metadata is not optional: one flipped
// format-param bit would otherwise reinterpret an unchanged pattern tape as
// a different numeric format, silently.) decode_network never trusts the
// input — every count, dimension and length is bounds-checked before any
// allocation, and a truncated, bit-flipped or hostile-length container
// throws (CodecError, a std::runtime_error) at the first bad byte; it
// never over-reads (tests/codec/codec_adversarial_test.cpp, run under
// ASan/TSan in CI).

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "codec/range_coder.hpp"
#include "nn/quantize.hpp"

namespace dp::codec {

inline constexpr std::array<std::uint8_t, 4> kDpnetzMagic = {'D', 'P', 'N', 'Z'};
/// v1 = uniform format (the only container that existed before mixed
/// precision; uniform networks still write exactly it, byte for byte).
inline constexpr std::uint8_t kDpnetzVersion = 1;
/// v2 = mixed precision: v1 plus the per-layer format table above.
inline constexpr std::uint8_t kDpnetzVersionMixed = 2;
/// Admission bounds, enforced before allocation so hostile fields cannot
/// balloon memory: layers, per-layer dimensions, per-layer element count.
inline constexpr std::size_t kMaxLayers = 1024;
inline constexpr std::size_t kMaxLayerDim = 1u << 20;
inline constexpr std::size_t kMaxLayerElements = 1u << 26;

/// Section symbol-model id (byte +9/+10 of a layer section), the only one a
/// reader accepts.
inline constexpr std::uint8_t kModelAdaptive = 1;

/// True if `bytes` starts with the .dpnetz magic (the sniff
/// nn::load_quantized and runtime::Model::load use to stay transparent).
bool has_dpnetz_magic(std::span<const std::uint8_t> bytes);

/// Serialize `net` into a .dpnetz container. Throws CodecError if a stored
/// pattern has bits outside the format width (such a network could not
/// round-trip bit-exactly).
std::vector<std::uint8_t> encode_network(const nn::QuantizedNetwork& net);

/// Parse a .dpnetz container back into the bit-identical QuantizedNetwork.
/// Throws CodecError on any malformed, truncated or corrupted input.
nn::QuantizedNetwork decode_network(std::span<const std::uint8_t> bytes);

/// File/stream spellings (streams must be binary). The path overload writes
/// atomically enough for our purposes: flush + error check, exactly like
/// nn::save_quantized. Throws CodecError (and std::runtime_error for I/O).
void save_compressed(std::ostream& os, const nn::QuantizedNetwork& net);
void save_compressed(const std::string& path, const nn::QuantizedNetwork& net);
nn::QuantizedNetwork load_compressed(std::istream& is);
nn::QuantizedNetwork load_compressed(const std::string& path);

}  // namespace dp::codec
