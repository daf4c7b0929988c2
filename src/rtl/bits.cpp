#include "rtl/bits.hpp"

#include <algorithm>

namespace dp::rtl {

namespace {

std::size_t limbs_for(std::size_t width) { return (width + kLimbBits - 1) / kLimbBits; }

}  // namespace

Bits::Bits(std::size_t width) : width_(width), limbs_(limbs_for(width), 0) {
  if (width == 0) throw std::invalid_argument("Bits: width must be >= 1");
}

Bits::Bits(std::size_t width, std::uint64_t value) : Bits(width) {
  limbs_[0] = value;
  trim();
}

Bits Bits::from_string(std::string_view binary) {
  if (binary.empty()) throw std::invalid_argument("Bits::from_string: empty literal");
  Bits out(binary.size());
  for (std::size_t i = 0; i < binary.size(); ++i) {
    const char c = binary[binary.size() - 1 - i];
    if (c == '1') {
      out.set_bit(i, true);
    } else if (c != '0') {
      throw std::invalid_argument("Bits::from_string: invalid character");
    }
  }
  return out;
}

Bits Bits::ones(std::size_t width) {
  Bits out(width);
  std::fill(out.limbs_.begin(), out.limbs_.end(), ~std::uint64_t{0});
  out.trim();
  return out;
}

bool Bits::bit(std::size_t i) const {
  if (i >= width_) throw std::out_of_range("Bits::bit: index out of range");
  return (limbs_[i / kLimbBits] >> (i % kLimbBits)) & 1u;
}

void Bits::set_bit(std::size_t i, bool v) {
  if (i >= width_) throw std::out_of_range("Bits::set_bit: index out of range");
  const std::uint64_t mask = std::uint64_t{1} << (i % kLimbBits);
  if (v) {
    limbs_[i / kLimbBits] |= mask;
  } else {
    limbs_[i / kLimbBits] &= ~mask;
  }
}

Bits Bits::slice(std::size_t hi, std::size_t lo) const {
  if (hi < lo) throw std::invalid_argument("Bits::slice: hi < lo");
  if (hi >= width_) throw std::out_of_range("Bits::slice: hi out of range");
  const std::size_t w = hi - lo + 1;
  Bits out = shr(lo);
  return out.resize(w);
}

Bits Bits::resize(std::size_t new_width) const {
  Bits out(new_width);
  const std::size_t n = std::min(out.limbs_.size(), limbs_.size());
  std::copy_n(limbs_.begin(), n, out.limbs_.begin());
  out.trim();
  return out;
}

Bits Bits::operator~() const {
  Bits out = *this;
  for (auto& l : out.limbs_) l = ~l;
  out.trim();
  return out;
}

void Bits::check_same_width(const Bits& a, const Bits& b) {
  if (a.width_ != b.width_) throw std::invalid_argument("Bits: width mismatch");
}

bool Bits::or_reduce() const noexcept {
  for (const auto l : limbs_)
    if (l != 0) return true;
  return false;
}

Bits Bits::shl(std::size_t k) const {
  Bits out(width_);
  if (k >= width_) return out;
  const std::size_t limb_shift = k / kLimbBits;
  const std::size_t bit_shift = k % kLimbBits;
  for (std::size_t i = limbs_.size(); i-- > limb_shift;) {
    std::uint64_t v = limbs_[i - limb_shift] << bit_shift;
    if (bit_shift != 0 && i > limb_shift) {
      v |= limbs_[i - limb_shift - 1] >> (kLimbBits - bit_shift);
    }
    out.limbs_[i] = v;
  }
  out.trim();
  return out;
}

Bits Bits::shr(std::size_t k) const {
  Bits out(width_);
  if (k >= width_) return out;
  const std::size_t limb_shift = k / kLimbBits;
  const std::size_t bit_shift = k % kLimbBits;
  for (std::size_t i = 0; i + limb_shift < limbs_.size(); ++i) {
    std::uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= limbs_[i + limb_shift + 1] << (kLimbBits - bit_shift);
    }
    out.limbs_[i] = v;
  }
  return out;
}

Bits Bits::sra(std::size_t k) const {
  if (!msb()) return shr(k);
  if (k >= width_) return ones(width_);
  Bits out = shr(k);
  for (std::size_t i = width_ - k; i < width_; ++i) out.set_bit(i, true);
  return out;
}

Bits Bits::operator+(const Bits& rhs) const {
  check_same_width(*this, rhs);
  Bits out(width_);
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const unsigned __int128 sum =
        static_cast<unsigned __int128>(limbs_[i]) + rhs.limbs_[i] + carry;
    out.limbs_[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> kLimbBits;
  }
  out.trim();
  return out;
}

Bits Bits::negate() const { return (~*this).add_u64(1); }

Bits Bits::add_u64(std::uint64_t v) const {
  Bits rhs(width_, width_ >= kLimbBits ? v : (v & ((std::uint64_t{1} << width_) - 1)));
  return *this + rhs;
}

Bits Bits::mul_wide(const Bits& rhs) const {
  Bits out(width_ + rhs.width_);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      if (i + j >= out.limbs_.size()) break;
      const unsigned __int128 cur = static_cast<unsigned __int128>(limbs_[i]) * rhs.limbs_[j] +
                                    out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> kLimbBits);
    }
    if (i + rhs.limbs_.size() < out.limbs_.size()) {
      // Propagate the final carry (cannot overflow the product width).
      std::size_t idx = i + rhs.limbs_.size();
      while (carry != 0 && idx < out.limbs_.size()) {
        const unsigned __int128 cur = static_cast<unsigned __int128>(out.limbs_[idx]) + carry;
        out.limbs_[idx] = static_cast<std::uint64_t>(cur);
        carry = static_cast<std::uint64_t>(cur >> kLimbBits);
        ++idx;
      }
    }
  }
  out.trim();
  return out;
}

bool Bits::operator==(const Bits& rhs) const {
  check_same_width(*this, rhs);
  return limbs_ == rhs.limbs_;
}

std::size_t Bits::lzd() const noexcept {
  for (std::size_t i = width_; i-- > 0;) {
    if ((limbs_[i / kLimbBits] >> (i % kLimbBits)) & 1u) return width_ - 1 - i;
  }
  return width_;
}

std::uint64_t Bits::to_u64() const {
  if (width_ > kLimbBits) throw std::logic_error("Bits::to_u64: width > 64");
  return limbs_[0];
}

std::int64_t Bits::to_i64() const {
  if (width_ > kLimbBits) throw std::logic_error("Bits::to_i64: width > 64");
  std::uint64_t v = limbs_[0];
  if (width_ < kLimbBits && msb()) {
    v |= ~((std::uint64_t{1} << width_) - 1);  // sign extend
  }
  return static_cast<std::int64_t>(v);
}

std::string Bits::to_string() const {
  std::string s(width_, '0');
  for (std::size_t i = 0; i < width_; ++i) {
    if (bit(i)) s[width_ - 1 - i] = '1';
  }
  return s;
}

void Bits::trim() noexcept {
  const std::size_t rem = width_ % kLimbBits;
  if (rem != 0) {
    limbs_.back() &= (std::uint64_t{1} << rem) - 1;
  }
}

}  // namespace dp::rtl
