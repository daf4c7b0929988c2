#pragma once
// runtime::Model — the immutable, shareable half of the inference API.
//
// A Model wraps a QuantizedNetwork together with everything derived from it
// that is read-only at serving time: the validated per-layer EMAC
// configuration and, when every layer has one, the register-blocked matmul
// kernels with their packed weight planes. Once constructed it is never
// mutated, so any number of Sessions (and any number of threads inside each
// Session's worker pool) can share one Model via std::shared_ptr<const Model>.
//
// All mutable inference state lives in a Scratch. A Scratch must never be
// shared between threads; Sessions keep one per worker-pool slot.
//
// Inference runs one of two paths, and both produce the same bits: rows are
// independent and the kernels compute the exact integer the paper's EMAC
// recurrence computes (tests/emac/kernel_differential_test.cpp).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "emac/emac.hpp"
#include "emac/kernel.hpp"
#include "nn/quantize.hpp"
#include "runtime/batch.hpp"

namespace dp::runtime {

/// Which path Model::forward_tile_into drives.
///  * kBlocked — the register-blocked MatmulKernels, a tile of samples per
///    weight-plane pass, when every layer has a kernel; otherwise (a layer
///    whose exact-width bound exceeds 250 bits) the step recurrence.
///  * kStep — the paper's reset/step*k/result recurrence, one virtual call
///    per MAC: the oracle. Also forced for every model by setting the
///    environment variable DP_FORCE_STEP_PATH=1.
enum class ForwardPath { kBlocked, kStep };

/// Per-thread mutable inference state for Model::forward_tile_into: the
/// lane-interleaved activation buffers, plus the packed activation tile (the
/// blocked path) or one EMAC per layer (the step path; neurons of a layer
/// share the unit in this software model, hardware instantiates one per
/// neuron — see dp::arch). Reusable across any number of calls; never share
/// one Scratch between threads.
class Scratch {
 private:
  friend class Model;
  std::vector<std::unique_ptr<emac::Emac>> emacs_;  // step path: one per layer
  emac::ActTile acts_;                              // blocked path
  std::vector<std::uint32_t> bits_;  // current activations, [i*tile + s]
  std::vector<std::uint32_t> next_;  // next layer's outputs, same layout
};

class Model {
 public:
  /// Validates every format/fan-in combination and, on the blocked path,
  /// builds each layer's kernel and packs its weight plane.
  explicit Model(nn::QuantizedNetwork network, ForwardPath path = ForwardPath::kBlocked);

  /// The idiomatic spelling for serving code: a shared immutable handle,
  /// ready to hand to any number of Sessions.
  static std::shared_ptr<const Model> create(nn::QuantizedNetwork network,
                                             ForwardPath path = ForwardPath::kBlocked);

  /// The deployment spelling: reload a shipped artifact straight into a
  /// shared Model — quantize offline, ship the file, hot-load it into a
  /// serve::ModelRegistry (docs/deployment.md). Reads both artifact formats
  /// transparently: the "dpnet-quant" text file (nn::save_quantized) and the
  /// entropy-coded ".dpnetz" container (nn::save_quantized_compressed),
  /// sniffed by magic — so shipping compressed weights changes nothing here
  /// (docs/compression.md). Throws std::runtime_error on malformed input.
  static std::shared_ptr<const Model> load(const std::string& path,
                                           ForwardPath forward = ForwardPath::kBlocked);

  ForwardPath forward_path() const { return path_; }
  /// The uniform format — or, for a mixed-precision model, the first layer's
  /// (== the input quantization format, so wire clients and Session callers
  /// keep one encode rule either way). Alias: input_format().
  const num::Format& format() const { return net_.format; }
  const num::Format& input_format() const { return net_.input_format(); }
  /// The format of the readout activations (the last layer's) — what
  /// argmax_bits and every reply decoder interpret bits with.
  const num::Format& output_format() const { return net_.output_format(); }
  /// True when at least two layers carry distinct formats.
  bool mixed_format() const { return !net_.uniform_format(); }
  /// Average parameter bits per stored parameter — the dp::tune budget axis.
  double bits_per_weight() const { return net_.bits_per_weight(); }
  const nn::QuantizedNetwork& network() const { return net_; }
  std::size_t input_dim() const { return net_.input_dim(); }
  std::size_t output_dim() const { return net_.output_dim(); }

  /// Total number of MAC operations for one inference (for energy models).
  std::size_t macs_per_inference() const;

  /// argmax over a row of output-format readout patterns.
  int argmax_bits(std::span<const std::uint32_t> bits) const;

  /// True when forward_tile_into runs the blocked kernels (every layer has
  /// one and the model is not on the step path).
  bool blocked_available() const { return !kernels_.empty(); }

  /// Samples per forward_tile_into call: the kernels' preferred tile (the
  /// minimum across layers when dispatch differs per layer), 1 on the step
  /// path. Serving front-ends align micro-batch flushes to a multiple of it.
  std::size_t preferred_tile() const { return tile_; }

  /// Dispatched kernel: "avx2", "scalar-blocked", "mixed" (per-layer
  /// dispatch differs) or "none" (the step path).
  const char* kernel_name() const;

  /// Fresh per-thread mutable state for forward_tile_into.
  Scratch make_scratch() const;

  /// The one inference entry point: quantize rows [row0, row0 + nrows) of
  /// `xs` into the input format, stream them through every layer and write
  /// sample s's readout patterns to out[s*output_dim() .. (s+1)*output_dim()).
  /// Throws std::invalid_argument unless 0 < nrows <= preferred_tile(), the
  /// rows exist and xs.row_width() == input_dim().
  void forward_tile_into(BatchView xs, std::size_t row0, std::size_t nrows,
                         Scratch& scratch, std::uint32_t* out) const;

 private:
  static std::uint32_t relu(std::uint32_t bits, const num::Format& fmt);

  nn::QuantizedNetwork net_;
  ForwardPath path_;
  // Blocked kernels + packed planes, one per layer; empty on the step path
  // (chosen, forced, or because some layer has no kernel). Immutable after
  // construction and shared read-only by every Scratch on every thread.
  std::vector<std::unique_ptr<emac::MatmulKernel>> kernels_;
  std::vector<emac::PackedPlane> packed_planes_;
  std::size_t tile_ = 1;
};

}  // namespace dp::runtime
