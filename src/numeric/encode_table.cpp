#include "numeric/encode_table.hpp"

#include <cfloat>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

namespace dp::num {

namespace {

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }
double double_of(std::uint64_t bits) { return std::bit_cast<double>(bits); }

/// Widest key tried. The paper grid needs at most 6 mantissa bits, so
/// failing here means the generic encoder is not monotone.
constexpr int kMaxMantissaBits = 20;

}  // namespace

EncodeTable::EncodeTable(const Format& fmt) : fmt_(fmt) {
  if (fmt.total_bits() > kMaxBits) {
    throw std::invalid_argument("EncodeTable: " + fmt.name() + " is wider than 8 bits");
  }
  zero_[0] = fmt.from_double(0.0);
  zero_[1] = fmt.from_double(-0.0);
  canonical_.resize(std::size_t{1} << fmt.total_bits());
  for (std::uint32_t p = 0; p < canonical_.size(); ++p) {
    canonical_[p] = fmt.from_double(fmt.to_double(p));
  }
  for (int m = 0; m <= kMaxMantissaBits; ++m) {
    if (build(m)) return;
  }
  throw std::logic_error("EncodeTable: no bucket width separates the boundaries of " +
                         fmt.name());
}

bool EncodeTable::build(int m) {
  shift_ = 52 - m;
  // Every boundary lies between half the smallest positive value and twice
  // the largest; the edge buckets stretch to denorm_min and DBL_MAX.
  key_lo_ = bits_of(fmt_.min_positive() / 2) >> shift_;
  key_hi_ = bits_of(fmt_.max_value() * 2) >> shift_;
  keys_per_sign_ = key_hi_ - key_lo_ + 1;
  buckets_.assign(2 * keys_per_sign_, Bucket{});
  for (const bool neg : {false, true}) {
    const auto enc = [&](std::uint64_t mag) {
      const double v = double_of(mag);
      return fmt_.from_double(neg ? -v : v);
    };
    for (std::uint64_t key = key_lo_; key <= key_hi_; ++key) {
      // The bucket's magnitudes, as the bits of positive doubles (which
      // order like the values).
      const std::uint64_t a0 = key == key_lo_ ? 1 : key << shift_;
      const std::uint64_t a1 = key == key_hi_ ? bits_of(DBL_MAX) : ((key + 1) << shift_) - 1;
      const std::uint32_t e0 = enc(a0);
      const std::uint32_t e1 = enc(a1);
      Bucket& b = buckets_[(neg ? keys_per_sign_ : 0) + key - key_lo_];
      if (e0 == e1) {
        b = {std::numeric_limits<double>::infinity(), e0, e0};
        continue;
      }
      // Smallest magnitude that encodes like the far end: [a0, below] keeps
      // e0 and [above, a1] gives e1.
      std::uint64_t below = a0;
      std::uint64_t above = a1;
      while (above - below > 1) {
        const std::uint64_t mid = below + (above - below) / 2;
        (enc(mid) == e1 ? above : below) = mid;
      }
      // A third pattern in between means a second boundary: widen the key.
      if (enc(below) != e0) return false;
      b = neg ? Bucket{-double_of(below), e1, e0} : Bucket{double_of(above), e0, e1};
    }
  }
  return true;
}

std::shared_ptr<const EncodeTable> shared_encode_table(const Format& fmt) {
  if (fmt.total_bits() > EncodeTable::kMaxBits) return nullptr;
  static std::mutex mutex;
  static std::map<std::string, std::shared_ptr<const EncodeTable>>& cache =
      *new std::map<std::string, std::shared_ptr<const EncodeTable>>();  // leaked: immortal
  const std::string key = fmt.name();  // unique per format
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  // Build outside the lock, as shared_decode_lut does: a racing duplicate is
  // wasted work, and the first insert wins.
  auto table = std::make_shared<const EncodeTable>(fmt);
  const std::lock_guard<std::mutex> lock(mutex);
  return cache.emplace(key, std::move(table)).first->second;
}

}  // namespace dp::num
