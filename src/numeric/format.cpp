#include "numeric/format.hpp"

#include <cmath>
#include <stdexcept>

namespace dp::num {

Format::Format(PositFormat f) : v_(f) { validate(f); }
Format::Format(FloatFormat f) : v_(f) { validate(f); }
Format::Format(FixedFormat f) : v_(f) { validate(f); }

Kind Format::kind() const {
  if (std::holds_alternative<PositFormat>(v_)) return Kind::kPosit;
  if (std::holds_alternative<FloatFormat>(v_)) return Kind::kFloat;
  return Kind::kFixed;
}

int Format::total_bits() const {
  switch (kind()) {
    case Kind::kPosit:
      return posit().n;
    case Kind::kFloat:
      return flt().n();
    case Kind::kFixed:
      return fixed().n;
  }
  throw std::logic_error("Format::total_bits");
}

std::string Format::name() const {
  switch (kind()) {
    case Kind::kPosit:
      return posit().name();
    case Kind::kFloat:
      return flt().name();
    case Kind::kFixed:
      return fixed().name();
  }
  throw std::logic_error("Format::name");
}

double Format::max_value() const {
  switch (kind()) {
    case Kind::kPosit:
      return posit().maxpos();
    case Kind::kFloat:
      return flt().max_value();
    case Kind::kFixed:
      return fixed().max_value();
  }
  throw std::logic_error("Format::max_value");
}

double Format::min_positive() const {
  switch (kind()) {
    case Kind::kPosit:
      return posit().minpos();
    case Kind::kFloat:
      return flt().min_value();
    case Kind::kFixed:
      return fixed().min_positive();
  }
  throw std::logic_error("Format::min_positive");
}

double Format::dynamic_range() const {
  switch (kind()) {
    case Kind::kPosit:
      return posit().dynamic_range();
    case Kind::kFloat:
      return flt().dynamic_range();
    case Kind::kFixed:
      return fixed().dynamic_range();
  }
  throw std::logic_error("Format::dynamic_range");
}

std::uint32_t Format::from_double(double x) const {
  switch (kind()) {
    case Kind::kPosit:
      return posit_from_double(x, posit());
    case Kind::kFloat:
      return float_from_double(x, flt(), FloatOverflow::kSaturate);
    case Kind::kFixed:
      return fixed_from_double(x, fixed());
  }
  throw std::logic_error("Format::from_double");
}

double Format::to_double(std::uint32_t bits) const {
  switch (kind()) {
    case Kind::kPosit: {
      const double v = posit_to_double(bits, posit());
      return v;
    }
    case Kind::kFloat:
      return float_to_double(bits, flt());
    case Kind::kFixed:
      return fixed_to_double(bits, fixed());
  }
  throw std::logic_error("Format::to_double");
}

const PositFormat& Format::posit() const { return std::get<PositFormat>(v_); }
const FloatFormat& Format::flt() const { return std::get<FloatFormat>(v_); }
const FixedFormat& Format::fixed() const { return std::get<FixedFormat>(v_); }

std::uint32_t convert(std::uint32_t bits, const Format& from, const Format& to) {
  if (from == to) return bits;
  const double v = from.to_double(bits);
  // fixed_from_double refuses NaN (a domain error for a quantizer); at a
  // mixed-format layer boundary an upstream NaR must instead map onto some
  // deterministic fixed pattern, and the most negative one is the least
  // likely to be mistaken for a real activation.
  if (to.kind() == Kind::kFixed && std::isnan(v)) {
    return fixed_from_raw(to.fixed().raw_min(), to.fixed());
  }
  return to.from_double(v);
}

std::vector<Format> paper_format_grid(int n) {
  std::vector<Format> out;
  for (int es = 0; es <= 3 && es <= n - 4; ++es) {
    out.emplace_back(PositFormat{n, es});
  }
  for (int we = 2; we <= 5 && we <= n - 2; ++we) {
    out.emplace_back(FloatFormat{we, n - 1 - we});
  }
  for (int q = 1; q <= n - 2; ++q) {
    out.emplace_back(FixedFormat{n, q});
  }
  return out;
}

}  // namespace dp::num
