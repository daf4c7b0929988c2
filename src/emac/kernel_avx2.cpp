// AVX2 register-blocked EMAC matmul: 4 accumulator lanes per ymm register,
// 4 lane groups = a 16-sample tile per weight-plane pass. Compiled with
// -mavx2 in its own translation unit; reached only through runtime dispatch
// (MatmulKernel::create checks __builtin_cpu_supports("avx2")), so the rest
// of the library stays baseline-ISA.
//
// Each lane keeps B = spec.limbs int64 limbs. _mm256_mul_epi32 multiplies
// the (sign-correct) low 32 bits of each lane — every ssig fits int32 for
// n <= 32 formats — and _mm256_sllv_epi64 applies the per-lane shift.
//  * B = 1: the limb is the AccKulisch64 register itself, += prod << shift.
//    The bound (spec.need_bits <= 62, AccKind::kI64) guarantees no partial
//    sum ever wraps.
//  * B > 1 (wide-quire formats): limb j takes the products whose shift lies
//    in [32j, 32j + 32), pre-shifted by shift & 31; the others are masked
//    off by comparing shift >> 5 against j. Each term is then below
//    2^(prod_bits + 31), so a limb's partial sums stay below
//    2^(prod_bits + 31 + bit_width(k)), and the limb gate
//    prod_bits + 31 + bit_width(k) + 1 <= 62 (make_kernel_spec) keeps them
//    inside int64. Once per (row, lane), readout_kernel_limbs sums the bias
//    image and every limb << 32j into the spec's register (AccKulisch128 or
//    AccKulischWide). Each limb << 32j is a subset sum of the row's shifted
//    products, so need_bits already bounds every partial sum of that
//    combination too.
// Either way the combined register equals the scalar kernel's bit for bit,
// and the shared readout produces the identical patterns
// (tests/emac/kernel_differential_test.cpp, kernel_bound_test.cpp).

#include "emac/kernel.hpp"

#if defined(DP_HAVE_AVX2_KERNEL)

#include <immintrin.h>

#include <algorithm>
#include <stdexcept>

namespace dp::emac {

namespace {

template <std::size_t B>
class Avx2Kernel final : public MatmulKernel {
 public:
  static constexpr std::size_t kTile = 16;
  /// Lane groups accumulated per pass over a weight row. The k loop runs
  /// inside the pass, so the pass's limbs stay in ymm registers and each
  /// weight broadcast serves every group in it. Up to 3 limbs per lane the
  /// whole 16-sample tile fits one pass; past that, two groups per pass
  /// measured faster than one (posit<8,2>, posit<8,3> on Mushroom shapes).
  static constexpr std::size_t kGroupsPerPass = B <= 3 ? 4 : 2;

  explicit Avx2Kernel(const KernelSpec& spec) : MatmulKernel(spec, kTile, "avx2") {}

  void matmul(const PackedPlane& w, const ActTile& acts, std::size_t samples,
              std::uint32_t* out) const override {
    const std::size_t stride = acts.tile;
    if (samples > stride || samples > kMaxKernelTile || stride % 4 != 0) {
      throw std::invalid_argument("Avx2Kernel::matmul: bad tile shape");
    }
    const std::size_t groups = (samples + 3) / 4;  // live 4-lane ymm groups
    alignas(32) std::int64_t limbs[B][kMaxKernelTile];
    for (std::size_t r = 0; r < w.rows; ++r) {
      for (std::size_t g0 = 0; g0 < groups; g0 += kGroupsPerPass) {
        pass<kGroupsPerPass>(std::min(kGroupsPerPass, groups - g0), w, r, acts, g0, limbs);
      }
      const unsigned rk =
          w.row_kinds[r] |
          (w.bias_nar[r] != 0 ? static_cast<unsigned>(DecodedOp::kNaR) : 0u);
      readout_kernel_limbs(spec_, &limbs[0][0], samples, w.bias_ssig[r], w.bias_shift[r],
                           rk, acts.kinds.data(), out + r * stride);
    }
  }

 private:
  /// Accumulate weight row r into lane groups [g0, g0 + live) and spill
  /// their limbs. The group count is a template argument so the limbs stay
  /// in registers across the whole k loop.
  template <std::size_t G>
  static void pass(std::size_t live, const PackedPlane& w, std::size_t r,
                   const ActTile& acts, std::size_t g0,
                   std::int64_t (&limbs)[B][kMaxKernelTile]) {
    if constexpr (G > 1) {
      if (live < G) return pass<G - 1>(live, w, r, acts, g0, limbs);
    }
    const std::size_t k = w.k;
    const std::size_t stride = acts.tile;
    const std::int32_t* ws = w.ssig.data() + r * k;
    const std::int32_t* wsh = w.shift.data() + r * k;
    const __m256i low5 = _mm256_set1_epi64x(31);
    __m256i acc[G][B];
    for (std::size_t g = 0; g < G; ++g) {
      for (std::size_t j = 0; j < B; ++j) acc[g][j] = _mm256_setzero_si256();
    }
    for (std::size_t i = 0; i < k; ++i) {
      const __m256i wss = _mm256_set1_epi64x(ws[i]);
      const __m256i wshv = _mm256_set1_epi64x(wsh[i]);
      const std::int64_t* as = acts.ssig.data() + i * stride + 4 * g0;
      const std::int64_t* af = acts.sf.data() + i * stride + 4 * g0;
      for (std::size_t g = 0; g < G; ++g) {
        const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(as + 4 * g));
        const __m256i sh = _mm256_add_epi64(
            wshv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(af + 4 * g)));
        const __m256i prod = _mm256_mul_epi32(wss, a);
        if constexpr (B == 1) {
          // Shift counts are in [0, 63] for live and padded lanes alike
          // (pads carry ssig = 0, sf = zero_sf; see kernel.hpp), so sllv
          // never zeroes a nonzero product.
          acc[g][0] = _mm256_add_epi64(acc[g][0], _mm256_sllv_epi64(prod, sh));
        } else {
          const __m256i in_band = _mm256_sllv_epi64(prod, _mm256_and_si256(sh, low5));
          const __m256i band = _mm256_srli_epi64(sh, 5);
          for (std::size_t j = 0; j < B; ++j) {
            const __m256i mask = _mm256_cmpeq_epi64(
                band, _mm256_set1_epi64x(static_cast<long long>(j)));
            acc[g][j] = _mm256_add_epi64(acc[g][j], _mm256_and_si256(mask, in_band));
          }
        }
      }
    }
    for (std::size_t g = 0; g < G; ++g) {
      for (std::size_t j = 0; j < B; ++j) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(limbs[j] + 4 * (g0 + g)), acc[g][j]);
      }
    }
  }
};

template <std::size_t B>
std::unique_ptr<MatmulKernel> make_for_limbs(const KernelSpec& spec) {
  if (spec.limbs == B) return std::make_unique<Avx2Kernel<B>>(spec);
  if constexpr (B > 1) {
    return make_for_limbs<B - 1>(spec);
  } else {
    throw std::logic_error("Avx2Kernel: spec has no limb count");
  }
}

}  // namespace

std::unique_ptr<MatmulKernel> make_avx2_kernel(const KernelSpec& spec) {
  return make_for_limbs<kMaxKernelLimbs>(spec);
}

}  // namespace dp::emac

#endif  // DP_HAVE_AVX2_KERNEL
