#include "emac/decode_lut.hpp"

#include <map>
#include <mutex>
#include <tuple>

#include "numeric/fixedpoint.hpp"
#include "numeric/minifloat.hpp"
#include "numeric/posit.hpp"

namespace dp::emac {

namespace {

/// Registry key: (kind, first parameter, second parameter) identifies a
/// format uniquely across the three families.
using LutKey = std::tuple<int, int, int>;

LutKey key_of(const num::Format& fmt) {
  switch (fmt.kind()) {
    case num::Kind::kPosit:
      return {0, fmt.posit().n, fmt.posit().es};
    case num::Kind::kFloat:
      return {1, fmt.flt().we, fmt.flt().wf};
    case num::Kind::kFixed:
      return {2, fmt.fixed().n, fmt.fixed().q};
  }
  throw std::logic_error("decode_lut: bad kind");
}

}  // namespace

DecodedOp decode_operand(std::uint32_t bits, const num::Format& fmt) {
  DecodedOp e;
  switch (fmt.kind()) {
    case num::Kind::kPosit: {
      const num::PositFormat& f = fmt.posit();
      const std::uint32_t b = bits & f.mask();
      if (b == f.zero_pattern()) {
        e.kind = DecodedOp::kZero;
      } else if (b == f.nar_pattern()) {
        e.kind = DecodedOp::kNaR;
      } else {
        num::PositRawDecode d;
        num::posit_decode_raw(b, f, d);
        e.kind = DecodedOp::kFinite;
        e.sign = d.sign;
        e.sf = d.sf;
        e.sig = d.sig;
        e.ssig = d.sign ? -static_cast<std::int64_t>(d.sig)
                        : static_cast<std::int64_t>(d.sig);
      }
      return e;
    }
    case num::Kind::kFloat: {
      const num::FloatFormat& f = fmt.flt();
      const num::FloatRawDecode d = num::float_decode_raw(bits & f.mask(), f);
      e.kind = d.sig == 0 ? DecodedOp::kZero : DecodedOp::kFinite;
      e.sign = d.sign;
      e.sf = d.exp;
      e.sig = d.sig;
      e.ssig = d.sign ? -static_cast<std::int64_t>(d.sig)
                      : static_cast<std::int64_t>(d.sig);
      return e;
    }
    case num::Kind::kFixed: {
      const num::FixedFormat& f = fmt.fixed();
      const std::int64_t raw = num::fixed_raw(bits & f.mask(), f);
      e.kind = raw == 0 ? DecodedOp::kZero : DecodedOp::kFinite;
      e.sig = static_cast<std::uint64_t>(raw);  // bit-cast; sign rides along
      e.ssig = raw;
      return e;
    }
  }
  throw std::logic_error("decode_lut: bad kind");
}

std::shared_ptr<const DecodeLut> shared_decode_lut(const num::Format& fmt) {
  if (fmt.total_bits() > kMaxLutBits) return nullptr;
  static std::mutex mutex;
  static std::map<LutKey, std::shared_ptr<const DecodeLut>>& cache =
      *new std::map<LutKey, std::shared_ptr<const DecodeLut>>();  // leaked: immortal cache
  const LutKey key = key_of(fmt);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  // Build outside the lock (tables are deterministic, so a racing duplicate
  // build is wasted work, not an error; first insert wins).
  auto lut = std::make_shared<DecodeLut>();
  lut->resize(std::size_t{1} << fmt.total_bits());
  for (std::uint32_t bits = 0; bits < lut->size(); ++bits) {
    (*lut)[bits] = decode_operand(bits, fmt);
  }
  const std::lock_guard<std::mutex> lock(mutex);
  const auto [it, inserted] = cache.emplace(key, std::move(lut));
  return it->second;
}

void Emac::decode_plane(const std::uint32_t* bits, std::size_t count, DecodedOp* out) const {
  const num::Format& fmt = format();
  if (const std::shared_ptr<const DecodeLut> lut = shared_decode_lut(fmt)) {
    const std::uint32_t mask = (std::uint32_t{1} << fmt.total_bits()) - 1;
    for (std::size_t i = 0; i < count; ++i) out[i] = (*lut)[bits[i] & mask];
    return;
  }
  for (std::size_t i = 0; i < count; ++i) out[i] = decode_operand(bits[i], fmt);
}

}  // namespace dp::emac
