#include "codec/container.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <string>

#include "codec/symbol_model.hpp"
#include "core/crc32.hpp"
#include "numeric/format.hpp"

namespace dp::codec {

namespace {

// --- little-endian packing (the container must not depend on host order) ---

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Cursor over untrusted bytes: every read is bounds-checked, so a hostile
/// length field fails at the first missing byte instead of over-reading.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v =
        static_cast<std::uint16_t>(bytes_[pos_] | (bytes_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | bytes_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 4;
    return v;
  }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    const std::span<const std::uint8_t> s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t pos() const { return pos_; }

 private:
  void need(std::size_t n) {
    if (bytes_.size() - pos_ < n) throw CodecError("dpnetz: truncated container");
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// The three header bytes a Format serializes to (kind, param a, param b).
struct FormatBytes {
  std::uint8_t kind = 0;
  std::uint8_t a = 0;
  std::uint8_t b = 0;
};

std::uint8_t kind_byte(num::Kind k) {
  switch (k) {
    case num::Kind::kPosit: return 0;
    case num::Kind::kFloat: return 1;
    case num::Kind::kFixed: return 2;
  }
  throw CodecError("dpnetz: bad format kind");
}

FormatBytes format_bytes(const num::Format& fmt) {
  FormatBytes fb;
  fb.kind = kind_byte(fmt.kind());
  switch (fmt.kind()) {
    case num::Kind::kPosit:
      fb.a = static_cast<std::uint8_t>(fmt.posit().n);
      fb.b = static_cast<std::uint8_t>(fmt.posit().es);
      break;
    case num::Kind::kFloat:
      fb.a = static_cast<std::uint8_t>(fmt.flt().we);
      fb.b = static_cast<std::uint8_t>(fmt.flt().wf);
      break;
    case num::Kind::kFixed:
      fb.a = static_cast<std::uint8_t>(fmt.fixed().n);
      fb.b = static_cast<std::uint8_t>(fmt.fixed().q);
      break;
  }
  return fb;
}

num::Format parse_format(std::uint8_t kind, std::uint8_t a, std::uint8_t b) {
  // The numeric validators throw std::invalid_argument (a logic_error);
  // convert to CodecError so a hostile header reads as malformed input, not
  // as a programming bug.
  try {
    switch (kind) {
      case 0: {
        const num::PositFormat f{a, b};
        num::validate(f);
        return num::Format{f};
      }
      case 1: {
        const num::FloatFormat f{a, b};
        num::validate(f);
        return num::Format{f};
      }
      case 2: {
        const num::FixedFormat f{a, b};
        num::validate(f);
        return num::Format{f};
      }
      default: break;
    }
  } catch (const std::invalid_argument& e) {
    throw CodecError(std::string("dpnetz: invalid format: ") + e.what());
  }
  throw CodecError("dpnetz: unknown format kind " + std::to_string(kind));
}

std::uint8_t activation_byte(nn::Activation a) {
  return a == nn::Activation::kReLU ? 1 : 0;
}

nn::Activation parse_activation(std::uint8_t b) {
  if (b == 0) return nn::Activation::kIdentity;
  if (b == 1) return nn::Activation::kReLU;
  throw CodecError("dpnetz: unknown activation " + std::to_string(b));
}

/// One section's coded bytes under a fresh adaptive model.
std::vector<std::uint8_t> encode_section(std::span<const std::uint32_t> patterns, int width) {
  std::vector<std::uint8_t> coded;
  BitTreeModel model(width);
  RangeEncoder enc(coded);
  for (const std::uint32_t p : patterns) model.encode(enc, p);
  enc.finish();
  return coded;
}

/// CRC-32 over the decoded CONTENT: the semantic fields a bit flip could
/// repoint (format kind/params, symbol width, layer count, every layer's
/// shape and activation) followed by every decoded pattern as LE u32,
/// weights then bias, layer by layer. Covering the metadata matters: the
/// patterns of a posit<8,0> network reinterpreted as fixed<8,1> — one
/// flipped header bit — are valid bytes with an unchanged pattern tape, and
/// only this CRC catches it. Mechanism fields (model ids, coded lengths)
/// are deliberately NOT covered: a flip there scrambles or truncates the
/// decode, which structural checks and this CRC then reject.
/// Incremental so neither side materializes the byte stream.
class ContentCrc {
 public:
  void add_byte(std::uint8_t b) {
    c_ = core::detail::kCrc32Table[(c_ ^ b) & 0xffu] ^ (c_ >> 8);
  }
  void add_u16(std::uint16_t v) {
    add_byte(static_cast<std::uint8_t>(v & 0xff));
    add_byte(static_cast<std::uint8_t>(v >> 8));
  }
  void add_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) add_byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(std::span<const std::uint32_t> patterns) {
    for (const std::uint32_t p : patterns) add_u32(p);
  }
  std::uint32_t value() const { return c_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t c_ = 0xFFFFFFFFu;
};

/// The metadata prefix both sides feed into the CRC before any patterns.
void crc_header(ContentCrc& crc, std::uint8_t kind, std::uint8_t a, std::uint8_t b,
                int width, std::size_t nlayers) {
  crc.add_byte(kind);
  crc.add_byte(a);
  crc.add_byte(b);
  crc.add_byte(static_cast<std::uint8_t>(width));
  crc.add_u16(static_cast<std::uint16_t>(nlayers));
}

/// The per-layer metadata fed into the CRC ahead of that layer's patterns.
void crc_layer(ContentCrc& crc, const nn::QuantizedLayer& layer) {
  crc.add_u32(static_cast<std::uint32_t>(layer.fan_out));
  crc.add_u32(static_cast<std::uint32_t>(layer.fan_in));
  crc.add_byte(activation_byte(layer.activation));
}

}  // namespace

bool has_dpnetz_magic(std::span<const std::uint8_t> bytes) {
  return bytes.size() >= kDpnetzMagic.size() &&
         std::equal(kDpnetzMagic.begin(), kDpnetzMagic.end(), bytes.begin());
}

std::vector<std::uint8_t> encode_network(const nn::QuantizedNetwork& net) {
  if (net.layers.empty()) throw CodecError("dpnetz: empty network");
  if (net.layers.size() > kMaxLayers) throw CodecError("dpnetz: too many layers");
  try {
    nn::validate_layer_formats(net);
  } catch (const std::invalid_argument& e) {
    throw CodecError(std::string("dpnetz: ") + e.what());
  }
  // Version is content-determined: uniform networks write the v1 container
  // byte-for-byte as they always have; only a genuinely mixed network gets
  // the v2 per-layer format table (decode_network enforces the bijection).
  const bool mixed = !net.uniform_format();
  const int width = net.format.total_bits();
  check_symbol_width(width);

  std::vector<std::uint8_t> out;
  out.reserve(64);
  for (const std::uint8_t b : kDpnetzMagic) out.push_back(b);
  out.push_back(mixed ? kDpnetzVersionMixed : kDpnetzVersion);
  const FormatBytes fb = format_bytes(net.format);
  out.push_back(fb.kind);
  out.push_back(fb.a);
  out.push_back(fb.b);
  out.push_back(static_cast<std::uint8_t>(width));
  out.push_back(0);  // reserved
  put_u16(out, static_cast<std::uint16_t>(net.layers.size()));

  ContentCrc crc;
  crc_header(crc, fb.kind, fb.a, fb.b, width, net.layers.size());
  if (mixed) {
    // The per-layer format table, CRC-covered verbatim: a flipped table bit
    // may not silently re-key a layer's patterns into another format.
    for (const num::Format& f : net.layer_formats) {
      const int w = f.total_bits();
      check_symbol_width(w);
      const FormatBytes lfb = format_bytes(f);
      out.push_back(lfb.kind);
      out.push_back(lfb.a);
      out.push_back(lfb.b);
      out.push_back(static_cast<std::uint8_t>(w));
      crc.add_byte(lfb.kind);
      crc.add_byte(lfb.a);
      crc.add_byte(lfb.b);
      crc.add_byte(static_cast<std::uint8_t>(w));
    }
  }
  for (std::size_t li = 0; li < net.layers.size(); ++li) {
    const nn::QuantizedLayer& layer = net.layers[li];
    const int lwidth = net.layer_format(li).total_bits();
    if (layer.fan_in == 0 || layer.fan_out == 0 || layer.fan_in > kMaxLayerDim ||
        layer.fan_out > kMaxLayerDim ||
        layer.fan_in * layer.fan_out > kMaxLayerElements) {
      throw CodecError("dpnetz: layer dimensions out of bounds");
    }
    if (layer.weights.size() != layer.fan_in * layer.fan_out ||
        layer.bias.size() != layer.fan_out) {
      throw CodecError("dpnetz: layer tape sizes disagree with its dimensions");
    }
    const std::vector<std::uint8_t> weights = encode_section(layer.weights, lwidth);
    const std::vector<std::uint8_t> bias = encode_section(layer.bias, lwidth);
    put_u32(out, static_cast<std::uint32_t>(layer.fan_out));
    put_u32(out, static_cast<std::uint32_t>(layer.fan_in));
    out.push_back(activation_byte(layer.activation));
    out.push_back(kModelAdaptive);  // weights
    out.push_back(kModelAdaptive);  // bias
    out.push_back(0);               // reserved
    put_u32(out, static_cast<std::uint32_t>(weights.size()));
    out.insert(out.end(), weights.begin(), weights.end());
    put_u32(out, static_cast<std::uint32_t>(bias.size()));
    out.insert(out.end(), bias.begin(), bias.end());
    crc_layer(crc, layer);
    crc.add(layer.weights);
    crc.add(layer.bias);
  }
  put_u32(out, crc.value());
  return out;
}

nn::QuantizedNetwork decode_network(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  if (!has_dpnetz_magic(bytes)) throw CodecError("dpnetz: bad magic");
  r.bytes(kDpnetzMagic.size());
  const std::uint8_t version = r.u8();
  if (version != kDpnetzVersion && version != kDpnetzVersionMixed) {
    throw CodecError("dpnetz: unsupported container version " + std::to_string(version));
  }
  const std::uint8_t kind = r.u8();
  const std::uint8_t pa = r.u8();
  const std::uint8_t pb = r.u8();
  const num::Format fmt = parse_format(kind, pa, pb);
  const int width = r.u8();
  if (width != fmt.total_bits()) {
    throw CodecError("dpnetz: symbol width disagrees with the format");
  }
  if (r.u8() != 0) throw CodecError("dpnetz: reserved header byte not zero");
  const std::size_t nlayers = r.u16();
  if (nlayers == 0 || nlayers > kMaxLayers) {
    throw CodecError("dpnetz: layer count out of bounds");
  }

  nn::QuantizedNetwork net{fmt, {}, {}};
  ContentCrc crc;
  crc_header(crc, kind, pa, pb, width, nlayers);
  if (version == kDpnetzVersionMixed) {
    // The whole format table is parsed, validated and CRC-fed here, BEFORE
    // any layer storage is allocated from the file's claims: hostile format
    // parameters, a table that contradicts the header format, a per-entry
    // width lie, and uniform-content v2 (two encodings of one network would
    // break the save/load bijection) all fail closed first.
    net.layer_formats.reserve(nlayers);
    bool uniform = true;
    for (std::size_t li = 0; li < nlayers; ++li) {
      const std::uint8_t lkind = r.u8();
      const std::uint8_t la = r.u8();
      const std::uint8_t lb = r.u8();
      const num::Format lfmt = parse_format(lkind, la, lb);
      const int lwidth = r.u8();
      if (lwidth != lfmt.total_bits()) {
        throw CodecError("dpnetz: layer symbol width disagrees with its format");
      }
      crc.add_byte(lkind);
      crc.add_byte(la);
      crc.add_byte(lb);
      crc.add_byte(static_cast<std::uint8_t>(lwidth));
      uniform = uniform && lfmt == fmt;
      net.layer_formats.push_back(lfmt);
    }
    if (!(net.layer_formats.front() == fmt)) {
      throw CodecError("dpnetz: format table entry 0 disagrees with the header format");
    }
    if (uniform) {
      throw CodecError("dpnetz: v2 container with a uniform format table");
    }
  }
  net.layers.reserve(nlayers);
  std::size_t prev_out = 0;
  for (std::size_t l = 0; l < nlayers; ++l) {
    const int lwidth = net.layer_format(l).total_bits();
    nn::QuantizedLayer layer;
    layer.fan_out = r.u32();
    layer.fan_in = r.u32();
    if (layer.fan_in == 0 || layer.fan_out == 0 || layer.fan_in > kMaxLayerDim ||
        layer.fan_out > kMaxLayerDim ||
        layer.fan_in * layer.fan_out > kMaxLayerElements) {
      throw CodecError("dpnetz: layer dimensions out of bounds");
    }
    if (l > 0 && layer.fan_in != prev_out) {
      throw CodecError("dpnetz: layer fan_in disagrees with previous fan_out");
    }
    prev_out = layer.fan_out;
    layer.activation = parse_activation(r.u8());
    // The two model-id bytes sit together in the fixed section header, ahead
    // of the variable-size blobs they describe.
    const std::uint8_t wmodel = r.u8();
    const std::uint8_t bmodel = r.u8();
    if (r.u8() != 0) throw CodecError("dpnetz: reserved section byte not zero");

    const auto decode_with = [&](std::uint8_t model_id, std::size_t count) {
      if (model_id != kModelAdaptive) {
        throw CodecError("dpnetz: unknown symbol model " + std::to_string(model_id));
      }
      std::vector<std::uint32_t> out(count);
      BitTreeModel model(lwidth);
      const std::uint32_t coded_len = r.u32();
      const std::span<const std::uint8_t> coded = r.bytes(coded_len);
      RangeDecoder dec(coded);
      for (std::uint32_t& p : out) p = model.decode(dec);
      if (dec.consumed() != coded.size()) {
        throw CodecError("dpnetz: section coded length disagrees with its content");
      }
      return out;
    };
    layer.weights = decode_with(wmodel, layer.fan_in * layer.fan_out);
    layer.bias = decode_with(bmodel, layer.fan_out);
    crc_layer(crc, layer);
    crc.add(layer.weights);
    crc.add(layer.bias);
    net.layers.push_back(std::move(layer));
  }
  const std::uint32_t want = r.u32();
  if (r.remaining() != 0) throw CodecError("dpnetz: trailing bytes after the CRC");
  if (want != crc.value()) {
    throw CodecError("dpnetz: content CRC mismatch (corrupted container)");
  }
  return net;
}

void save_compressed(std::ostream& os, const nn::QuantizedNetwork& net) {
  const std::vector<std::uint8_t> bytes = encode_network(net);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (!os) throw CodecError("dpnetz: write failed");
}

void save_compressed(const std::string& path, const nn::QuantizedNetwork& net) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw CodecError("dpnetz: cannot open " + path);
  save_compressed(os, net);
  os.flush();
  if (!os) throw CodecError("dpnetz: write failed for " + path);
}

nn::QuantizedNetwork load_compressed(std::istream& is) {
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                  std::istreambuf_iterator<char>());
  if (is.bad()) throw CodecError("dpnetz: read failed");
  return decode_network(bytes);
}

nn::QuantizedNetwork load_compressed(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw CodecError("dpnetz: cannot open " + path);
  return load_compressed(is);
}

}  // namespace dp::codec
