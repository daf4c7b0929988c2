#include "runtime/model.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "nn/io.hpp"

namespace dp::runtime {

namespace {

/// DP_FORCE_STEP_PATH=1 (any value other than unset/empty/"0") forces every
/// model onto the paper's per-MAC step() recurrence — the no-rebuild
/// cross-check knob documented in docs/reproducing.md.
bool step_path_forced() {
  const char* v = std::getenv("DP_FORCE_STEP_PATH");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/// One EMAC unit per layer, in that layer's format and fan-in.
std::vector<std::unique_ptr<emac::Emac>> make_units(const nn::QuantizedNetwork& net) {
  std::vector<std::unique_ptr<emac::Emac>> units;
  units.reserve(net.layers.size());
  for (std::size_t li = 0; li < net.layers.size(); ++li) {
    units.push_back(emac::make_emac(net.layer_format(li), net.layers[li].fan_in));
  }
  return units;
}

}  // namespace

Model::Model(nn::QuantizedNetwork network, ForwardPath path)
    : net_(std::move(network)),
      path_(step_path_forced() ? ForwardPath::kStep : path),
      input_encoder_(net_.input_format()) {
  if (net_.layers.empty()) throw std::invalid_argument("runtime::Model: empty network");
  // A malformed per-layer format table must fail here, before any of it is
  // trusted to size an accumulator or pick a kernel.
  nn::validate_layer_formats(net_);
  // Fails fast on unsupported format/fan-in combinations and provides the
  // units that decode the weight planes below.
  const std::vector<std::unique_ptr<emac::Emac>> units = make_units(net_);
  // Formats of n <= 8 re-encode at mixed boundaries through tables that
  // match num::convert bit for bit.
  boundary_tables_.resize(net_.layers.size());
  for (std::size_t li = 1; li < net_.layers.size(); ++li) {
    const num::Format& from = net_.layer_format(li - 1);
    const num::Format& to = net_.layer_format(li);
    if (from == to || from.total_bits() > num::EncodeTable::kMaxBits ||
        to.total_bits() > num::EncodeTable::kMaxBits) {
      continue;
    }
    std::vector<std::uint32_t>& table = boundary_tables_[li];
    table.resize(std::size_t{1} << from.total_bits());
    for (std::uint32_t p = 0; p < table.size(); ++p) table[p] = num::convert(p, from, to);
  }
  if (path_ == ForwardPath::kStep) return;
  // Blocked kernels are all-or-nothing, so forward_tile_into never mixes
  // kernel and step layers. Dispatch (AVX2 vs portable,
  // DP_FORCE_SCALAR_KERNEL) — and with it the accumulator width and the
  // AVX2 limb count — is resolved PER LAYER, against each layer's own
  // format: in a mixed model one layer may take the AVX2 kernel while a
  // neighbour whose products are too wide for an int64 limb (posit<16,1>
  // at fan-in 16 or more) takes the scalar-blocked one (kernel_name() then
  // reports "mixed").
  for (std::size_t li = 0; li < net_.layers.size(); ++li) {
    auto kern = emac::MatmulKernel::create(net_.layer_format(li), net_.layers[li].fan_in);
    if (kern == nullptr) {
      kernels_.clear();
      return;
    }
    kernels_.push_back(std::move(kern));
  }
  tile_ = kernels_.front()->tile();
  std::vector<emac::DecodedOp> decoded;
  for (std::size_t li = 0; li < net_.layers.size(); ++li) {
    const nn::QuantizedLayer& layer = net_.layers[li];
    decoded.resize(layer.weights.size());
    units[li]->decode_plane(layer.weights.data(), layer.weights.size(), decoded.data());
    tile_ = std::min(tile_, kernels_[li]->tile());
    packed_planes_.push_back(
        kernels_[li]->pack_plane(decoded.data(), layer.fan_out, layer.bias.data()));
  }
}

std::shared_ptr<const Model> Model::create(nn::QuantizedNetwork network, ForwardPath path) {
  return std::make_shared<const Model>(std::move(network), path);
}

std::shared_ptr<const Model> Model::load(const std::string& path, ForwardPath forward) {
  return create(nn::load_quantized(path), forward);
}

Scratch Model::make_scratch() const {
  Scratch scratch;
  // Step-path units are cheap to build: their decode tables come from the
  // process-wide shared registry.
  if (kernels_.empty()) scratch.emacs_ = make_units(net_);
  std::size_t widest = net_.input_dim();
  for (const nn::QuantizedLayer& layer : net_.layers) widest = std::max(widest, layer.fan_out);
  scratch.bits_.reserve(widest * tile_);
  scratch.next_.reserve(widest * tile_);
  return scratch;
}

std::uint32_t Model::relu(std::uint32_t bits, const num::Format& fmt) {
  switch (fmt.kind()) {
    case num::Kind::kPosit: {
      const auto& f = fmt.posit();
      bits &= f.mask();
      if (bits == f.nar_pattern()) return bits;  // NaR passes through
      // Negative iff the sign bit is set (and not NaR).
      return ((bits >> (f.n - 1)) & 1u) ? f.zero_pattern() : bits;
    }
    case num::Kind::kFloat: {
      const auto& f = fmt.flt();
      bits &= f.mask();
      // Clear negatives (including -0) to +0.
      return ((bits >> (f.we + f.wf)) & 1u) ? num::float_zero(f) : bits;
    }
    case num::Kind::kFixed: {
      const auto& f = fmt.fixed();
      return num::fixed_raw(bits, f) < 0 ? num::fixed_from_raw(0, f) : (bits & f.mask());
    }
  }
  throw std::logic_error("runtime::Model::relu: bad kind");
}

int Model::argmax_bits(std::span<const std::uint32_t> bits) const {
  const num::Format& fmt = net_.output_format();
  int best = 0;
  double best_score = bits.empty() ? 0.0 : fmt.to_double(bits[0]);
  for (std::size_t i = 1; i < bits.size(); ++i) {
    const double score = fmt.to_double(bits[i]);
    if (score > best_score) {
      best = static_cast<int>(i);
      best_score = score;
    }
  }
  return best;
}

const char* Model::kernel_name() const {
  if (kernels_.empty()) return "none";
  const char* name = kernels_.front()->name();
  for (const auto& kern : kernels_) {
    if (std::strcmp(kern->name(), name) != 0) return "mixed";
  }
  return name;
}

std::uint32_t* Model::input_lanes(std::size_t rows, std::size_t width, std::size_t row0,
                                  std::size_t nrows, Scratch& scratch) const {
  if (nrows == 0 || nrows > tile_ || row0 + nrows > rows) {
    throw std::invalid_argument("runtime::Model::forward_tile_into: bad tile range");
  }
  if (width != net_.input_dim()) {
    throw std::invalid_argument("runtime::Model::forward_tile_into: bad input size");
  }
  // Inputs go straight into the lane-interleaved layout the kernels consume:
  // element i of sample s at [i*tile + s]. Pad lanes stay zero and are never
  // read: every loop stops at s < nrows.
  scratch.bits_.assign(width * tile_, 0);
  return scratch.bits_.data();
}

void Model::forward_tile_into(BatchView xs, std::size_t row0, std::size_t nrows,
                              Scratch& scratch, std::uint32_t* out) const {
  std::uint32_t* bits = input_lanes(xs.rows(), xs.row_width(), row0, nrows, scratch);
  for (std::size_t s = 0; s < nrows; ++s) input_encoder_.encode(xs.row(row0 + s), bits + s, tile_);
  run_layers(nrows, scratch, out);
}

void Model::forward_tile_into(PatternView xs, std::size_t row0, std::size_t nrows,
                              Scratch& scratch, std::uint32_t* out) const {
  std::uint32_t* bits = input_lanes(xs.rows(), xs.row_width(), row0, nrows, scratch);
  for (std::size_t s = 0; s < nrows; ++s) {
    input_encoder_.canonical(xs.row(row0 + s), bits + s, tile_);
  }
  run_layers(nrows, scratch, out);
}

void Model::run_layers(std::size_t nrows, Scratch& scratch, std::uint32_t* out) const {
  const std::size_t tile = tile_;
  std::vector<std::uint32_t>& bits = scratch.bits_;
  std::vector<std::uint32_t>& next = scratch.next_;
  for (std::size_t li = 0; li < net_.layers.size(); ++li) {
    const nn::QuantizedLayer& layer = net_.layers[li];
    const num::Format& fmt = net_.layer_format(li);
    // Activations produced upstream carry the previous layer's format; at a
    // mixed boundary re-encode them into this layer's.
    if (li > 0 && !(net_.layer_format(li - 1) == fmt)) {
      const std::vector<std::uint32_t>& table = boundary_tables_[li];
      const num::Format& prev = net_.layer_format(li - 1);
      for (std::size_t i = 0; i < layer.fan_in; ++i) {
        std::uint32_t* lane = bits.data() + i * tile;
        if (!table.empty()) {
          const std::size_t mask = table.size() - 1;
          for (std::size_t s = 0; s < nrows; ++s) lane[s] = table[lane[s] & mask];
        } else {
          for (std::size_t s = 0; s < nrows; ++s) lane[s] = num::convert(lane[s], prev, fmt);
        }
      }
    }
    next.resize(layer.fan_out * tile);
    if (kernels_.empty()) {
      // The paper's neuron: reset to the bias, one exact step per
      // (weight, activation) pair, one rounding at readout.
      emac::Emac& unit = *scratch.emacs_[li];
      for (std::size_t s = 0; s < nrows; ++s) {
        for (std::size_t j = 0; j < layer.fan_out; ++j) {
          unit.reset(layer.bias[j]);
          const std::uint32_t* wrow = layer.weights.data() + j * layer.fan_in;
          for (std::size_t i = 0; i < layer.fan_in; ++i) unit.step(wrow[i], bits[i * tile + s]);
          next[j * tile + s] = unit.result();
        }
      }
    } else {
      const emac::MatmulKernel& kern = *kernels_[li];
      kern.pack_acts(bits.data(), layer.fan_in, nrows, tile, scratch.acts_);
      kern.matmul(packed_planes_[li], scratch.acts_, nrows, next.data());
    }
    if (layer.activation == nn::Activation::kReLU) {
      for (std::size_t j = 0; j < layer.fan_out; ++j) {
        std::uint32_t* lane = next.data() + j * tile;
        for (std::size_t s = 0; s < nrows; ++s) lane[s] = relu(lane[s], fmt);
      }
    }
    bits.swap(next);
  }
  // De-interleave the readout to the caller's planar rows.
  const std::size_t out_dim = net_.output_dim();
  for (std::size_t s = 0; s < nrows; ++s) {
    for (std::size_t j = 0; j < out_dim; ++j) out[s * out_dim + j] = bits[j * tile + s];
  }
}

std::size_t Model::macs_per_inference() const {
  std::size_t macs = 0;
  for (const auto& layer : net_.layers) macs += layer.fan_in * layer.fan_out;
  return macs;
}

}  // namespace dp::runtime
