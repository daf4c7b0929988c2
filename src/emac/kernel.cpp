#include "emac/kernel.hpp"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "numeric/fixedpoint.hpp"
#include "numeric/minifloat.hpp"
#include "numeric/posit.hpp"
#include "numeric/unpacked.hpp"

namespace dp::emac {

namespace {

/// DP_FORCE_SCALAR_KERNEL=1 (any value other than unset/empty/"0") pins
/// dispatch to the portable scalar-blocked kernel — the cross-check knob for
/// CI's forced-fallback leg, mirroring DP_FORCE_STEP_PATH.
bool scalar_kernel_forced() {
  const char* v = std::getenv("DP_FORCE_SCALAR_KERNEL");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/// Fixed-family readout: the register holds the exact 2q-fraction sum, so
/// (acc >> q) truncated toward -inf and clipped to the raw range is the
/// FixedEmac result verbatim. Overloaded per policy so only the policies the
/// spec can actually select compile a register extraction.
std::uint32_t readout_fixed(const AccKulisch64& acc, const num::FixedFormat& f) {
  const std::int64_t shifted = acc.v >> f.q;
  const std::int64_t lo = f.raw_min();
  const std::int64_t hi = f.raw_max();
  return num::fixed_from_raw(shifted < lo ? lo : (shifted > hi ? hi : shifted), f);
}

std::uint32_t readout_fixed(const AccKulisch128& acc, const num::FixedFormat& f) {
  const __int128 shifted = acc.v >> f.q;
  const __int128 lo = f.raw_min();
  const __int128 hi = f.raw_max();
  const __int128 clipped = shifted < lo ? lo : (shifted > hi ? hi : shifted);
  return num::fixed_from_raw(static_cast<std::int64_t>(clipped), f);
}

std::uint32_t readout_fixed(const AccKulischWide&, const num::FixedFormat&) {
  // make_kernel_spec caps the fixed family at the 128-bit register.
  throw std::logic_error("MatmulKernel: fixed family never selects the wide register");
}

/// Final exact reduction of one finished lane: the same NaR/zero/readout/
/// encode sequence as each EMAC model's result(), so the rounded pattern is
/// bit-identical by construction.
template <typename Acc>
std::uint32_t readout_acc(const KernelSpec& spec, const Acc& acc, unsigned kinds) {
  switch (spec.fmt.kind()) {
    case num::Kind::kPosit: {
      const num::PositFormat& f = spec.fmt.posit();
      if ((kinds & DecodedOp::kNaR) != 0) return f.nar_pattern();
      if (acc.is_zero()) return f.zero_pattern();
      num::Unpacked u;
      acc.readout(u, spec.frame);
      return num::posit_encode(u, f);
    }
    case num::Kind::kFloat: {
      // Minifloats have no NaR; the kind bits are never set past kFinite.
      const num::FloatFormat& f = spec.fmt.flt();
      if (acc.is_zero()) return num::float_zero(f);
      num::Unpacked u;
      acc.readout(u, spec.frame);
      return num::float_encode(u, f, num::FloatOverflow::kSaturate);
    }
    case num::Kind::kFixed:
      return readout_fixed(acc, spec.fmt.fixed());
  }
  throw std::logic_error("MatmulKernel: bad format kind");
}

/// The portable register-blocked kernel: an 8-sample tile, one accum.hpp
/// policy value per lane, the exact step() integer per lane. Works for
/// all three register widths (the AVX2 kernel only covers the int64 case).
template <typename Acc>
class ScalarBlockedKernel final : public MatmulKernel {
 public:
  explicit ScalarBlockedKernel(const KernelSpec& spec)
      : MatmulKernel(spec, /*tile=*/8, "scalar-blocked") {}

  void matmul(const PackedPlane& w, const ActTile& acts, std::size_t samples,
              std::uint32_t* out) const override {
    const std::size_t stride = acts.tile;
    if (samples > stride || samples > kMaxKernelTile) {
      throw std::invalid_argument("MatmulKernel::matmul: samples exceed the tile");
    }
    const std::size_t k = w.k;
    for (std::size_t r = 0; r < w.rows; ++r) {
      Acc acc[kMaxKernelTile] = {};
      if (w.bias_ssig[r] != 0) {
        for (std::size_t s = 0; s < samples; ++s) {
          acc[s].add_product(w.bias_ssig[r], w.bias_shift[r]);
        }
      }
      const std::int32_t* ws = w.ssig.data() + r * k;
      const std::int32_t* wsh = w.shift.data() + r * k;
      for (std::size_t i = 0; i < k; ++i) {
        const std::int64_t wss = ws[i];
        const std::int64_t shift = wsh[i];
        const std::int64_t* as = acts.ssig.data() + i * stride;
        const std::int64_t* af = acts.sf.data() + i * stride;
        for (std::size_t s = 0; s < samples; ++s) {
          acc[s].add_product(wss * as[s], static_cast<int>(shift + af[s]));
        }
      }
      const unsigned rk =
          w.row_kinds[r] |
          (w.bias_nar[r] != 0 ? static_cast<unsigned>(DecodedOp::kNaR) : 0u);
      for (std::size_t s = 0; s < samples; ++s) {
        out[r * stride + s] = readout_acc(spec_, acc[s], rk | acts.kinds[s]);
      }
    }
  }
};

std::unique_ptr<MatmulKernel> make_scalar_kernel(const KernelSpec& spec) {
  switch (spec.acc_kind) {
    case AccKind::kI64:
      return std::make_unique<ScalarBlockedKernel<AccKulisch64>>(spec);
    case AccKind::kI128:
      return std::make_unique<ScalarBlockedKernel<AccKulisch128>>(spec);
    case AccKind::kWide:
      return std::make_unique<ScalarBlockedKernel<AccKulischWide>>(spec);
  }
  throw std::logic_error("MatmulKernel: bad accumulator kind");
}

}  // namespace

std::uint32_t readout_kernel_lane_i64(const KernelSpec& spec, std::int64_t acc,
                                      unsigned kinds) {
  return readout_acc(spec, AccKulisch64{acc}, kinds);
}

bool make_kernel_spec(const num::Format& fmt, std::size_t k, KernelSpec& out) {
  out = KernelSpec(fmt);
  out.k = k;
  if (k == 0) return false;
  switch (fmt.kind()) {
    case num::Kind::kPosit: {
      const num::PositFormat& f = fmt.posit();
      if (f.n < f.es + 4) return false;  // posit_decode_raw precondition
      const std::int64_t s = f.max_scale();
      const int p = f.n - 2 - f.es;
      out.sf_bias = static_cast<std::int32_t>(2 * s);
      out.zero_sf = 0;
      out.frame = 2 * s + 2 * (p - 1);
      // |shifted product| < 2^(4S + 2P); bias image < 2^(3S + P); k + 1
      // terms need bit_width(k) + 1 headroom, +1 sign.
      out.need_bits = 4 * static_cast<std::size_t>(s) + 2 * static_cast<std::size_t>(p) +
                      static_cast<std::size_t>(std::bit_width(k)) + 2;
      break;
    }
    case num::Kind::kFloat: {
      const num::FloatFormat& f = fmt.flt();
      out.sf_bias = -2;
      out.zero_sf = 1;  // zero patterns decode with effective exponent 1
      out.frame = 2 * f.bias() + 2 * f.wf - 2;
      out.need_bits = 2 * static_cast<std::size_t>(f.expmax()) +
                      2 * static_cast<std::size_t>(f.wf) + 2 +
                      static_cast<std::size_t>(std::bit_width(k)) + 1;
      break;
    }
    case num::Kind::kFixed: {
      const num::FixedFormat& f = fmt.fixed();
      out.sf_bias = 0;
      out.zero_sf = 0;
      out.fixed_q = f.q;
      // |product| < 2^(2n-2); the bias image raw << q is no larger.
      out.need_bits = 2 * static_cast<std::size_t>(f.n - 1) +
                      static_cast<std::size_t>(std::bit_width(k)) + 2;
      // The fixed readout extracts the raw register; cap at the 128-bit
      // policy (the wide register has no cheap extraction and no real
      // format gets anywhere near 125 bits).
      if (out.need_bits > 125) return false;
      break;
    }
  }
  if (out.need_bits > 250) return false;  // same ceiling as the EMAC units
  out.acc_kind = select_acc_kind(out.need_bits);
  return true;
}

MatmulKernel::MatmulKernel(const KernelSpec& spec, std::size_t tile, const char* name)
    : spec_(spec), tile_(tile), name_(name), lut_(shared_decode_lut(spec.fmt)) {
  switch (spec_.fmt.kind()) {
    case num::Kind::kPosit:
      mask_ = spec_.fmt.posit().mask();
      break;
    case num::Kind::kFloat:
      mask_ = spec_.fmt.flt().mask();
      break;
    case num::Kind::kFixed:
      mask_ = spec_.fmt.fixed().mask();
      break;
  }
}

std::unique_ptr<MatmulKernel> MatmulKernel::create(const num::Format& fmt, std::size_t k) {
  KernelSpec spec(fmt);
  if (!make_kernel_spec(fmt, k, spec)) return nullptr;
#if defined(DP_HAVE_AVX2_KERNEL)
  if (spec.acc_kind == AccKind::kI64 && !scalar_kernel_forced() &&
      __builtin_cpu_supports("avx2")) {
    return make_avx2_kernel(spec);
  }
#endif
  return make_scalar_kernel(spec);
}

std::unique_ptr<MatmulKernel> MatmulKernel::create_scalar(const num::Format& fmt,
                                                          std::size_t k) {
  KernelSpec spec(fmt);
  if (!make_kernel_spec(fmt, k, spec)) return nullptr;
  return make_scalar_kernel(spec);
}

PackedPlane MatmulKernel::pack_plane(const DecodedOp* weights, std::size_t rows,
                                     const std::uint32_t* bias_bits) const {
  PackedPlane p;
  p.rows = rows;
  p.k = spec_.k;
  p.ssig.resize(rows * p.k);
  p.shift.resize(rows * p.k);
  p.row_kinds.assign(rows, 0);
  p.bias_ssig.assign(rows, 0);
  p.bias_shift.assign(rows, 0);
  p.bias_nar.assign(rows, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    unsigned kinds = 0;
    for (std::size_t i = 0; i < p.k; ++i) {
      const DecodedOp& d = weights[r * p.k + i];
      kinds |= static_cast<unsigned>(d.kind);
      p.ssig[r * p.k + i] = static_cast<std::int32_t>(d.ssig);
      p.shift[r * p.k + i] = d.sf + spec_.sf_bias;
    }
    p.row_kinds[r] = static_cast<std::uint8_t>(kinds);
    // Resolve the bias to its accumulator image once, exactly as each EMAC
    // model's reset() loads it.
    switch (spec_.fmt.kind()) {
      case num::Kind::kPosit: {
        const num::PositFormat& f = spec_.fmt.posit();
        const std::uint32_t b = bias_bits[r] & f.mask();
        if (b == f.nar_pattern()) {
          p.bias_nar[r] = 1;
          break;
        }
        num::PositRawDecode d;
        if (num::posit_decode_raw(b, f, d)) {
          p.bias_ssig[r] = d.sign ? -static_cast<std::int64_t>(d.sig)
                                  : static_cast<std::int64_t>(d.sig);
          p.bias_shift[r] = static_cast<std::int32_t>(d.sf + 2 * f.max_scale() +
                                                      (f.n - 2 - f.es) - 1);
        }
        break;
      }
      case num::Kind::kFloat: {
        const num::FloatFormat& f = spec_.fmt.flt();
        const num::FloatRawDecode d = num::float_decode_raw(bias_bits[r], f);
        if (d.sig != 0) {
          p.bias_ssig[r] = d.sign ? -static_cast<std::int64_t>(d.sig)
                                  : static_cast<std::int64_t>(d.sig);
          p.bias_shift[r] = d.exp + f.bias() + f.wf - 2;
        }
        break;
      }
      case num::Kind::kFixed: {
        const num::FixedFormat& f = spec_.fmt.fixed();
        p.bias_ssig[r] = num::fixed_raw(bias_bits[r], f);
        p.bias_shift[r] = f.q;
        break;
      }
    }
  }
  return p;
}

void MatmulKernel::pack_acts(const std::uint32_t* bits, std::size_t fan_in,
                             std::size_t samples, std::size_t stride,
                             ActTile& out) const {
  if (samples > stride) {
    throw std::invalid_argument("MatmulKernel::pack_acts: samples > stride");
  }
  out.tile = stride;
  out.fan_in = fan_in;
  out.ssig.assign(fan_in * stride, 0);
  out.sf.assign(fan_in * stride, spec_.zero_sf);
  out.kinds.assign(stride, 0);
  const DecodeLut* lut = lut_.get();
  for (std::size_t i = 0; i < fan_in; ++i) {
    std::int64_t* ssig = out.ssig.data() + i * stride;
    std::int64_t* sf = out.sf.data() + i * stride;
    for (std::size_t s = 0; s < samples; ++s) {
      const DecodedOp d = lut != nullptr ? (*lut)[bits[i * stride + s] & mask_]
                                         : decode_operand(bits[i * stride + s], spec_.fmt);
      ssig[s] = d.ssig;
      sf[s] = d.sf;
      out.kinds[s] |= static_cast<std::uint8_t>(d.kind);
    }
  }
}

}  // namespace dp::emac
