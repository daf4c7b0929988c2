#pragma once
// dp::rtl::Bits — a dynamic-width bit vector with hardware (VHDL/Verilog)
// semantics: modular two's-complement arithmetic inside a fixed declared
// width, slicing, shifts and leading-zero detection.
//
// The Deep Positron EMACs (Figs 3-5 of the paper, Algorithms 1-2) are
// specified as register-transfer-level datapaths; implementing them against
// this class keeps the C++ model line-for-line comparable with the RTL.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dp::rtl {

/// Number of bits in one storage limb.
inline constexpr std::size_t kLimbBits = 64;

/// A fixed-width (chosen at construction) bit vector.
///
/// Invariants:
///  * width() >= 1
///  * all storage bits above width()-1 are zero (canonical form)
///
/// Arithmetic is modulo 2^width (hardware register semantics); signedness is
/// an interpretation applied by the caller (msb, negate, sra, to_i64).
class Bits {
 public:
  /// Zero-valued vector of the given width. Width must be >= 1.
  explicit Bits(std::size_t width);

  /// Vector of `width` bits holding `value` mod 2^width.
  Bits(std::size_t width, std::uint64_t value);

  /// Parse a binary literal, e.g. "0110". MSB first. Width = string length.
  static Bits from_string(std::string_view binary);

  /// All-ones vector of the given width.
  static Bits ones(std::size_t width);

  std::size_t width() const noexcept { return width_; }

  // -- bit access ------------------------------------------------------
  bool bit(std::size_t i) const;              ///< value of bit i (0 = LSB)
  void set_bit(std::size_t i, bool v);        ///< assign bit i
  bool msb() const { return bit(width_ - 1); }

  // -- slicing / resizing ----------------------------------------------
  /// VHDL-style slice in[hi : lo] (inclusive, hi >= lo). Result width hi-lo+1.
  Bits slice(std::size_t hi, std::size_t lo) const;

  /// Zero-extend or truncate (keeping LSBs) to `new_width`.
  Bits resize(std::size_t new_width) const;

  // -- logic ------------------------------------------------------------
  Bits operator~() const;
  bool or_reduce() const noexcept;  ///< |x : any bit set

  // -- shifts ------------------------------------------------------------
  Bits shl(std::size_t k) const;  ///< logical shift left (bits drop off MSB)
  Bits shr(std::size_t k) const;  ///< logical shift right
  Bits sra(std::size_t k) const;  ///< arithmetic shift right (MSB replicated)

  // -- arithmetic (modulo 2^width) ---------------------------------------
  Bits operator+(const Bits& rhs) const;
  Bits negate() const;                     ///< two's complement (-x)
  Bits add_u64(std::uint64_t v) const;
  /// Widening unsigned multiply: result width = width() + rhs.width().
  Bits mul_wide(const Bits& rhs) const;

  // -- comparison ----------------------------------------------------------
  bool operator==(const Bits& rhs) const;
  bool is_zero() const noexcept { return !or_reduce(); }

  // -- counting --------------------------------------------------------------
  /// Leading-zero detector: number of consecutive 0 bits starting at the MSB.
  /// Returns width() when the vector is zero.
  std::size_t lzd() const noexcept;

  // -- conversion -----------------------------------------------------------
  /// Unsigned value; requires width() <= 64.
  std::uint64_t to_u64() const;
  /// Signed (two's complement) value; requires width() <= 64.
  std::int64_t to_i64() const;

  std::string to_string() const;  ///< binary, MSB first

 private:
  void trim() noexcept;  // restore canonical form (clear bits above width)
  static void check_same_width(const Bits& a, const Bits& b);

  std::size_t width_;
  std::vector<std::uint64_t> limbs_;  // little-endian limb order
};

}  // namespace dp::rtl
