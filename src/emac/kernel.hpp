#pragma once
// Register-blocked multi-sample EMAC matmul kernels — the fast inference
// path; the step() recurrence of emac.hpp is the oracle they must match.
//
// A MatmulKernel processes a TILE of samples per weight-plane pass — per
// weight row it keeps one exact accumulator per sample lane in registers, so
// each weight element is loaded once and multiplied into every lane before
// moving on. Operands are pre-decoded (DecodedOp), so the inner loop is one
// integer shift-and-add per (weight, sample) pair:
//
//     acc[s] += ssig_w * ssig_a[s]  <<  (sf_w + sf_a[s] + sf_bias)
//
// and because (a) integer addition is associative/commutative and (b) the
// eq. (3)/(4)-style width bound guarantees every PARTIAL sum of up to k
// shifted products plus the bias image fits the selected register (each
// |shifted product| < 2^(need_bits - bit_width(k) - 1), so any subset sums
// to < 2^(need_bits - 1)), any accumulation order — per-sample, blocked, or
// SIMD-lane-split — produces the identical integer, hence the identical
// readout and the identical rounded pattern. The final exact reduction
// uses the accum.hpp policies and the format encoders, so the kernel output
// is bit-identical to the step() recurrence for every input
// (tests/emac/kernel_differential_test.cpp).
//
// Two implementations sit behind MatmulKernel::create():
//  * avx2 — 4 int64 lanes per ymm register, 4 registers = a 16-sample tile;
//    only eligible when the bound selects the int64 accumulator (AccKind::
//    kI64 — the whole paper grid n 5-8 qualifies) and the CPU reports AVX2.
//  * scalar-blocked — portable fallback, 8-sample tile, same layout, the
//    accumulators are plain accum.hpp policy values (all three widths).
// DP_FORCE_SCALAR_KERNEL=1 (any value other than unset/empty/"0") forces the
// portable kernel regardless of CPU support — the no-rebuild cross-check
// knob, mirroring DP_FORCE_STEP_PATH.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "emac/accum.hpp"
#include "emac/decode_lut.hpp"
#include "emac/emac.hpp"
#include "numeric/format.hpp"

namespace dp::emac {

/// Hard upper bound on any kernel's sample tile (lanes of on-stack
/// accumulator arrays). matmul() accepts any samples <= min(stride, this).
inline constexpr std::size_t kMaxKernelTile = 16;

/// Everything the inner loops and the final readout need, precomputed once
/// per (format, k) at kernel creation. The shift constants place every
/// product in the step() accumulator's frame:
///  * posit — sf_bias = 2S, frame = 2S + 2(P-1), bias shift = sf + 2S + P-1.
///  * float — sf_bias = -2, frame = 2*bias + 2*wf - 2, bias shift =
///    exp + bias + wf - 2; zero patterns decode with sf == 1 (zero_sf), which
///    keeps every shift non-negative.
///  * fixed — all scale factors 0; readout is (acc >> q) clipped to the raw
///    range, the bias image is raw << q.
struct KernelSpec {
  explicit KernelSpec(const num::Format& f) : fmt(f) {}

  num::Format fmt;
  std::size_t k = 0;            ///< max accumulation length (layer fan-in)
  std::int32_t sf_bias = 0;     ///< added to every product shift
  std::int32_t zero_sf = 0;     ///< sf of the format's zero pattern (pads)
  std::int64_t frame = 0;       ///< readout frame (posit/float families)
  int fixed_q = 0;              ///< fraction bits (fixed family)
  /// Exact-width bound: every partial sum of <= k shifted products plus the
  /// bias image has magnitude < 2^(need_bits - 1). Always >= the paper's
  /// eq. (3)/(4) width (tests/emac/kernel_bound_test.cpp).
  std::size_t need_bits = 0;
  AccKind acc_kind = AccKind::kI64;
};

/// A weight plane re-packed for the blocked kernels: per-element signed
/// significands and pre-biased shifts (sf + sf_bias) as int32 SoA, the
/// OR-reduced DecodedOp kind per row, and the bias pre-resolved to its
/// integer accumulator image (ssig, shift, NaR flag). Built once at
/// runtime::Model construction, immutable and shareable after.
struct PackedPlane {
  std::size_t rows = 0;
  std::size_t k = 0;
  std::vector<std::int32_t> ssig;       ///< [r*k + i]
  std::vector<std::int32_t> shift;      ///< [r*k + i], sf + sf_bias
  std::vector<std::uint8_t> row_kinds;  ///< [r], OR of the row's op kinds
  std::vector<std::int64_t> bias_ssig;  ///< [r], signed significand (or raw)
  std::vector<std::int32_t> bias_shift; ///< [r]
  std::vector<std::uint8_t> bias_nar;   ///< [r], posit NaR bias
};

/// One tile of activations in lane-interleaved SoA layout: element i of
/// sample s sits at [i*tile + s]. Lanes >= samples are padded with
/// (ssig = 0, sf = zero_sf) so a SIMD kernel may process whole lane groups
/// without masking — padded lanes contribute exactly nothing. kinds[s] is
/// the OR of sample s's op kinds over the whole vector.
struct ActTile {
  std::size_t tile = 0;     ///< lane stride (>= samples packed)
  std::size_t fan_in = 0;
  std::vector<std::int64_t> ssig;   ///< [i*tile + s]
  std::vector<std::int64_t> sf;     ///< [i*tile + s]
  std::vector<std::uint8_t> kinds;  ///< [s]
};

class MatmulKernel {
 public:
  virtual ~MatmulKernel() = default;

  /// Dispatched factory: the fastest eligible kernel for this (format, k) on
  /// this CPU — AVX2 when compiled in, supported at runtime, not forced off
  /// via DP_FORCE_SCALAR_KERNEL, and the bound fits int64; the portable
  /// scalar-blocked kernel otherwise. Returns nullptr when no kernel
  /// supports the combination (bound beyond 250 bits, zero k): callers fall
  /// back to the step() recurrence.
  static std::unique_ptr<MatmulKernel> create(const num::Format& fmt, std::size_t k);

  /// The portable scalar-blocked kernel, unconditionally — the differential
  /// suite drives it against create() and the step() oracle.
  static std::unique_ptr<MatmulKernel> create_scalar(const num::Format& fmt,
                                                     std::size_t k);

  const KernelSpec& spec() const { return spec_; }
  /// Preferred samples per pass; the ideal flush multiple for batchers.
  std::size_t tile() const { return tile_; }
  /// "avx2" or "scalar-blocked" — lands in BENCH_throughput.json.
  const char* name() const { return name_; }

  /// Re-pack a decoded weight plane (row-major rows x k, as produced by
  /// Emac::decode_plane) plus the per-row bias patterns.
  PackedPlane pack_plane(const DecodedOp* weights, std::size_t rows,
                         const std::uint32_t* bias_bits) const;

  /// Decode + interleave one tile of activation vectors. `bits` is already
  /// lane-interleaved ([i*stride + s], the layout matmul writes), `samples`
  /// of the `stride` lanes are live. stride must be >= samples and, for the
  /// AVX2 kernel, a multiple of 4.
  void pack_acts(const std::uint32_t* bits, std::size_t fan_in, std::size_t samples,
                 std::size_t stride, ActTile& out) const;

  /// out[r*acts.tile + s] = encoded dot of weight row r with sample s, for
  /// every r < weights.rows and s < samples. samples must be <=
  /// min(acts.tile, kMaxKernelTile). Lanes >= samples of `out` are left
  /// untouched. Bit-identical to step() per the header contract.
  virtual void matmul(const PackedPlane& weights, const ActTile& acts,
                      std::size_t samples, std::uint32_t* out) const = 0;

 protected:
  MatmulKernel(const KernelSpec& spec, std::size_t tile, const char* name);

  KernelSpec spec_;
  std::size_t tile_;
  const char* name_;
  std::shared_ptr<const DecodeLut> lut_;  ///< may be null (wide formats)
  std::uint32_t mask_ = 0;
};

/// Compute the spec for (fmt, k), or report unsupported (k == 0 or the bound
/// exceeds the 250-bit policy ceiling). Exposed for the bound tests.
bool make_kernel_spec(const num::Format& fmt, std::size_t k, KernelSpec& out);

/// Final exact reduction of one finished int64 lane (the AVX2 spill path):
/// identical to the scalar kernel's AccKulisch64 readout.
std::uint32_t readout_kernel_lane_i64(const KernelSpec& spec, std::int64_t acc,
                                      unsigned kinds);

#if defined(DP_HAVE_AVX2_KERNEL)
/// Internal: the AVX2 kernel (kernel_avx2.cpp, compiled with -mavx2).
/// Requires spec.acc_kind == AccKind::kI64; call through create().
std::unique_ptr<MatmulKernel> make_avx2_kernel(const KernelSpec& spec);
#endif

}  // namespace dp::emac
