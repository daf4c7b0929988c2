#pragma once
// Exact multiply-and-accumulate (EMAC) units — software models of the
// precision-adaptable FPGA soft cores of the Deep Positron paper (Figs 3-5).
//
// An EMAC consumes one (weight, activation) pair per clock cycle, accumulates
// the *exact* product into a wide fixed-point register (a Kulisch accumulator;
// for posits, the quire), and applies a single rounding/clipping step when the
// result is read out. Rounding is therefore delayed until every product has
// been accumulated — the defining property of the architecture.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "numeric/format.hpp"

namespace dp::emac {

/// A pre-decoded EMAC operand: the format-specific field extraction (posit
/// regime/exponent/fraction, minifloat subnormal handling, fixed-point sign
/// extension) done once, so the blocked matmul kernels (emac/kernel.hpp)
/// never touch the bit pattern again.
///
/// Field meaning per format family:
///  * posit — kind classifies zero/NaR; sf = {regime,exponent} scale factor,
///    sig = significand with hidden bit, (n-2-es) bits.
///  * float — sf = effective biased exponent (subnormals read as 1), sig =
///    significand with hidden bit (clear for subnormals); kind == kZero iff
///    sig == 0.
///  * fixed — sig holds the sign-extended raw integer, bit-cast to uint64;
///    sf and sign are unused.
/// Kind values are chosen so a whole row's classification can be tracked
/// branch-free: OR the kinds of every operand pair together and test the
/// kNaR bit once at the end.
struct DecodedOp {
  enum Kind : std::uint8_t { kZero = 0, kFinite = 1, kNaR = 2 };
  Kind kind = kZero;
  bool sign = false;
  std::int32_t sf = 0;
  std::uint64_t sig = 0;   ///< magnitude significand (step()-path frame)
  /// Signed significand: (-1)^sign * sig, and 0 for zero/NaR operands — so
  /// the kernels get the product sign from the multiply itself and zero/NaR
  /// pairs contribute nothing without a branch.
  std::int64_t ssig = 0;
};

/// One EMAC soft core instance, configured for a numeric format and a maximum
/// accumulation length k (the fan-in of the neuron it serves).
///
/// An Emac is deliberately stateful — reset/step mutate the wide accumulator
/// — so a unit must never be shared between threads. Code that needs
/// concurrent accumulations (e.g. the batched inference engine) gives each
/// worker its own unit via clone() or make_emac(); the configuration
/// accessors (format, max_terms, accumulator_width) are const and safe to
/// read from anywhere.
class Emac {
 public:
  virtual ~Emac() = default;

  /// A fresh, independent unit with the same configuration (format, k,
  /// model variant) and an empty accumulator — accumulation state is NOT
  /// copied. The per-thread replication point for parallel inference.
  virtual std::unique_ptr<Emac> clone() const = 0;

  /// Begin a new accumulation, loading `bias_bits` (a value in the unit's
  /// format) into the accumulator. Mirrors the paper: "the accumulator D
  /// flip-flop can be reset to the fixed-point representation of the bias".
  virtual void reset(std::uint32_t bias_bits) = 0;

  /// Start with an empty (zero) accumulator.
  void reset() { reset(zero_bits()); }

  /// One MAC cycle: accumulate weight * activation exactly.
  virtual void step(std::uint32_t weight_bits, std::uint32_t activation_bits) = 0;

  /// Post-summation stage: round/normalize/clip to the output format.
  virtual std::uint32_t result() const = 0;

  /// Decode `count` raw patterns of the unit's format into pre-decoded
  /// operands, the input of MatmulKernel::pack_plane (through the shared
  /// decode table where one exists). Planes depend on the format only, never
  /// on accumulator state, so a plane decoded by one unit is valid for any
  /// unit of the same format.
  void decode_plane(const std::uint32_t* bits, std::size_t count, DecodedOp* out) const;

  virtual const num::Format& format() const = 0;
  virtual std::size_t max_terms() const = 0;  ///< k

  /// Width in bits of the exact accumulation register actually allocated.
  virtual std::size_t accumulator_width() const = 0;

  /// The zero pattern of the unit's format.
  virtual std::uint32_t zero_bits() const { return 0; }
};

/// Accumulator width for a scaled (float/fixed) format per eq. (3) of the
/// paper: wa = ceil(log2 k) + 2*ceil(log2(max/min)) + 2.
std::size_t accumulator_width_eq3(double max_value, double min_value, std::size_t k);

/// Posit quire width per eq. (4): qsize = 2^(es+2)*(n-2) + 2 + ceil(log2 k).
std::size_t quire_width_eq4(const num::PositFormat& fmt, std::size_t k);

/// Factory: build the matching EMAC model for any format.
/// `bit_accurate` selects the RTL-faithful implementation (posit only; the
/// fixed/float datapaths are integer-exact in both variants). The functional
/// and RTL-faithful models are bit-equivalent (see tests/emac).
std::unique_ptr<Emac> make_emac(const num::Format& fmt, std::size_t k,
                                bool bit_accurate = false);

}  // namespace dp::emac
