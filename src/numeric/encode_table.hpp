#pragma once
// num::EncodeTable — an exact, O(1) double -> pattern encoder for the
// paper's formats of at most 8 bits, and the process-wide cache that shares
// one table per format.
//
// A format of n <= 8 bits has at most 2^n patterns, so the real line splits
// into at most 2^n runs that encode alike. The table cuts each sign's
// magnitudes into buckets keyed by the top bits of the double itself — the
// binade and the top m mantissa bits, clamped to the format's range — and
// picks the smallest m for which every bucket holds at most one rounding
// boundary. An encode is then one load and one compare:
//
//   b = bucket(x);  pattern = x >= thr[b] ? hi[b] : lo[b]
//
// The thresholds are found by bisecting against the generic encoder
// (Format::from_double), so the table is exact by construction;
// tests/numeric/encode_table_test.cpp checks it on every paper-grid format.
// ±0, ±Inf and NaN skip the buckets: ±0 returns the generic encoder's
// patterns for ±0, kept at build time (float keeps -0, and posits never round
// a nonzero value to zero, so 0 cannot share denorm_min's bucket), and ±Inf
// and NaN call the generic encoder, which keeps fixed_from_double's
// std::domain_error on NaN. docs/formats.md
// ("Encoding a double") has the layout and the exactness argument.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "numeric/format.hpp"

namespace dp::num {

class EncodeTable {
 public:
  /// Widest format a table is built for.
  static constexpr int kMaxBits = 8;

  /// Builds the table (about a millisecond). Throws std::invalid_argument
  /// for a format wider than kMaxBits. Prefer shared_encode_table().
  explicit EncodeTable(const Format& fmt);

  /// Exactly fmt.from_double(x), including its exceptions.
  std::uint32_t encode(double x) const {
    const std::uint64_t u = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t mag = u & ~kSignBit;
    // ±0 wraps to the top; ±Inf and NaN sit at or above kInfBits.
    if (mag - 1 >= kInfBits - 1) [[unlikely]] {
      return mag == 0 ? zero_[u >> 63] : fmt_.from_double(x);
    }
    const std::uint64_t key = std::clamp(mag >> shift_, key_lo_, key_hi_) - key_lo_;
    const Bucket& b = buckets_[key + (u >> 63) * keys_per_sign_];
    return b.pattern[x >= b.thr];
  }

  /// fmt.from_double(fmt.to_double(p)), bits above n ignored: the pattern
  /// the quantizer emits for p's value. The mask for posit and fixed; a
  /// float ±Inf also saturates to ±max and every NaN payload folds to the
  /// one NaN from_double emits.
  std::uint32_t canonical(std::uint32_t p) const {
    return canonical_[p & (canonical_.size() - 1)];
  }

  const Format& format() const { return fmt_; }
  /// Mantissa bits in the bucket key (the m above).
  int mantissa_bits() const { return 52 - shift_; }
  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  static constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kInfBits = 0x7FF0'0000'0000'0000;

  /// Encodes to pattern[0] below thr and to pattern[1] from thr up.
  struct Bucket {
    double thr;
    std::uint32_t pattern[2];
  };

  /// Fills buckets_ for a key of `m` mantissa bits; false if some bucket
  /// holds two or more rounding boundaries.
  bool build(int m);

  Format fmt_;
  int shift_ = 52;
  std::uint64_t key_lo_ = 0;
  std::uint64_t key_hi_ = 0;
  std::uint64_t keys_per_sign_ = 0;
  std::vector<Bucket> buckets_;  // [positive keys..., negative keys...]
  std::uint32_t zero_[2] = {};   // fmt.from_double(+0.0), fmt.from_double(-0.0)
  std::vector<std::uint32_t> canonical_;  // canonical(p) for every pattern p
};

/// The process-wide table for `fmt`, built on first use and shared
/// read-only by every caller; nullptr when fmt is wider than
/// EncodeTable::kMaxBits (callers then use fmt.from_double).
std::shared_ptr<const EncodeTable> shared_encode_table(const Format& fmt);

/// The one rule for what becomes a kernel input: fmt.from_double, through
/// the format's shared table when it has one (n <= 8) — the same patterns in
/// a few ns instead of a few tens. Quantizer, Model input and wire client all
/// encode through it.
class Encoder {
 public:
  explicit Encoder(const Format& fmt) : fmt_(fmt), table_(shared_encode_table(fmt)) {}

  std::uint32_t operator()(double x) const {
    return table_ != nullptr ? table_->encode(x) : fmt_.from_double(x);
  }

  /// operator() on each of `xs`, the i-th pattern to out[i * stride] (the
  /// table-or-not choice made once, outside the loop).
  void encode(std::span<const double> xs, std::uint32_t* out, std::size_t stride) const {
    if (const EncodeTable* table = table_.get()) {
      for (std::size_t i = 0; i < xs.size(); ++i) out[i * stride] = table->encode(xs[i]);
    } else {
      for (std::size_t i = 0; i < xs.size(); ++i) out[i * stride] = fmt_.from_double(xs[i]);
    }
  }

  /// Each of `ps` encoded by the same rule as the value it decodes to,
  /// fmt.from_double(fmt.to_double(p)) (EncodeTable::canonical), the i-th
  /// to out[i * stride].
  void canonical(std::span<const std::uint32_t> ps, std::uint32_t* out,
                 std::size_t stride) const {
    if (const EncodeTable* table = table_.get()) {
      for (std::size_t i = 0; i < ps.size(); ++i) out[i * stride] = table->canonical(ps[i]);
    } else {
      for (std::size_t i = 0; i < ps.size(); ++i) {
        out[i * stride] = fmt_.from_double(fmt_.to_double(ps[i]));
      }
    }
  }

 private:
  Format fmt_;
  std::shared_ptr<const EncodeTable> table_;
};

}  // namespace dp::num
