// Accumulator-bound edge tests for the blocked matmul kernels.
//
// The kernels' exactness argument rests on one invariant: every PARTIAL sum
// of up to k shifted significand products plus the bias image fits the
// register selected by KernelSpec::need_bits — magnitude strictly below
// 2^(need_bits - 1). These tests attack that invariant with adversarial
// operand patterns (all-max-magnitude rows, alternating-sign cancellation,
// NaR/zero interleaves), tracking the exact partial sums in __int128
// alongside, and check the bound computation itself: static_asserts on the
// select_acc_kind register boundaries and the relation to the paper's
// eq. (4) quire width.

#include "emac/kernel.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <vector>

#include "emac/accum.hpp"
#include "emac/decode_lut.hpp"
#include "emac/emac.hpp"
#include "numeric/format.hpp"

namespace dp::emac {
namespace {

// The register-selection boundaries are compile-time facts: 62 magnitude
// bits is the last int64 spec (1 sign bit + 1 negation-margin bit), 125 the
// last __int128 one. A regression here silently over- or under-allocates
// every kernel, so pin them with static_assert.
static_assert(select_acc_kind(1) == AccKind::kI64);
static_assert(select_acc_kind(62) == AccKind::kI64);
static_assert(select_acc_kind(63) == AccKind::kI128);
static_assert(select_acc_kind(125) == AccKind::kI128);
static_assert(select_acc_kind(126) == AccKind::kWide);
static_assert(select_acc_kind(250) == AccKind::kWide);

using u128 = unsigned __int128;
using i128 = __int128;

int bit_width_u128(u128 v) {
  int b = 0;
  while (v != 0) {
    ++b;
    v >>= 1;
  }
  return b;
}

u128 abs_i128(i128 v) { return v < 0 ? -static_cast<u128>(v) : static_cast<u128>(v); }

/// The finite pattern of maximum magnitude and the one of minimum (most
/// negative) value, judged in the kernel's own (ssig, sf) frame.
struct Extremes {
  std::uint32_t max_mag = 0;  // maximizes |ssig| * 2^sf
  std::uint32_t min_val = 0;  // minimizes ssig * 2^sf (most negative)
};

Extremes find_extremes(const num::Format& fmt) {
  const std::uint32_t mask = (1u << fmt.total_bits()) - 1u;
  Extremes e;
  long double best_mag = -1.0L;
  long double worst_val = 1.0L;
  for (std::uint32_t bits = 0; bits <= mask; ++bits) {
    const DecodedOp d = decode_operand(bits, fmt);
    if (d.kind != DecodedOp::kFinite) continue;
    const long double mag = std::ldexp(static_cast<long double>(
                                           d.ssig < 0 ? -d.ssig : d.ssig),
                                       d.sf);
    const long double val = std::ldexp(static_cast<long double>(d.ssig), d.sf);
    if (mag > best_mag) {
      best_mag = mag;
      e.max_mag = bits;
    }
    if (val < worst_val) {
      worst_val = val;
      e.min_val = bits;
    }
  }
  return e;
}

/// |product image| of one (weight, activation) pair in the accumulator
/// frame: |ssig_w * ssig_a| << (sf_w + sf_a + sf_bias).
u128 product_image(const KernelSpec& spec, std::uint32_t w_bits, std::uint32_t a_bits) {
  const DecodedOp w = decode_operand(w_bits, spec.fmt);
  const DecodedOp a = decode_operand(a_bits, spec.fmt);
  const i128 prod = static_cast<i128>(w.ssig) * a.ssig;
  const int shift = w.sf + a.sf + spec.sf_bias;
  EXPECT_GE(shift, 0);
  return abs_i128(prod) << shift;
}

/// Signed product image, for the cancellation walk.
i128 signed_product_image(const KernelSpec& spec, std::uint32_t w_bits,
                          std::uint32_t a_bits) {
  const DecodedOp w = decode_operand(w_bits, spec.fmt);
  const DecodedOp a = decode_operand(a_bits, spec.fmt);
  return (static_cast<i128>(w.ssig) * a.ssig) << (w.sf + a.sf + spec.sf_bias);
}

/// |bias image| via the kernel's own pre-resolution (pack_plane).
u128 bias_image(const MatmulKernel& kern, std::uint32_t bias_bits) {
  const std::size_t k = kern.spec().k;
  std::vector<DecodedOp> wdec(k);  // zeros; only the bias matters here
  const PackedPlane p = kern.pack_plane(wdec.data(), 1, &bias_bits);
  if (p.bias_nar[0] != 0) return 0;
  return abs_i128(p.bias_ssig[0]) << p.bias_shift[0];
}

/// Both kernels (dispatched + forced scalar) against the step() oracle on a
/// fully specified adversarial plane, every output word. The oracle's
/// outputs ([s*rows + r]) land in *oracle when given.
void expect_kernels_match_step(const num::Format& fmt, std::size_t k,
                               const std::vector<std::uint32_t>& weight_bits,
                               const std::vector<std::uint32_t>& bias_bits,
                               const std::vector<std::uint32_t>& act_bits,  // [s*k+i]
                               std::size_t samples,
                               std::vector<std::uint32_t>* oracle = nullptr) {
  const std::size_t rows = bias_bits.size();
  ASSERT_EQ(weight_bits.size(), rows * k);
  ASSERT_EQ(act_bits.size(), samples * k);

  std::unique_ptr<Emac> unit = make_emac(fmt, k);
  std::vector<std::uint32_t> expected(samples * rows);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t r = 0; r < rows; ++r) {
      unit->reset(bias_bits[r]);
      for (std::size_t i = 0; i < k; ++i) {
        unit->step(weight_bits[r * k + i], act_bits[s * k + i]);
      }
      expected[s * rows + r] = unit->result();
    }
  }
  if (oracle != nullptr) *oracle = expected;

  std::vector<DecodedOp> wdec(weight_bits.size());
  unit->decode_plane(weight_bits.data(), weight_bits.size(), wdec.data());
  for (auto* make : {&MatmulKernel::create, &MatmulKernel::create_scalar}) {
    const std::unique_ptr<MatmulKernel> kern = (*make)(fmt, k);
    ASSERT_NE(kern, nullptr) << fmt.name() << " k=" << k;
    const std::size_t tile = kern->tile();
    ASSERT_LE(samples, tile) << "test shape must fit one tile";
    const PackedPlane plane = kern->pack_plane(wdec.data(), rows, bias_bits.data());
    std::vector<std::uint32_t> interleaved(k * tile, 0);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t s = 0; s < samples; ++s) {
        interleaved[i * tile + s] = act_bits[s * k + i];
      }
    }
    ActTile acts;
    kern->pack_acts(interleaved.data(), k, samples, tile, acts);
    std::vector<std::uint32_t> out(rows * tile, 0xffffffffu);
    kern->matmul(plane, acts, samples, out.data());
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t s = 0; s < samples; ++s) {
        ASSERT_EQ(out[r * tile + s], expected[s * rows + r])
            << fmt.name() << " k=" << k << " kernel=" << kern->name() << " row=" << r
            << " sample=" << s;
      }
    }
  }
}

/// The paper-grid formats whose AVX2 lanes split into shift-band limbs
/// (KernelSpec::limbs > 1) at fan-in k.
std::vector<num::Format> banded_grid_formats(std::size_t k) {
  std::vector<num::Format> out;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      KernelSpec spec(fmt);
      if (make_kernel_spec(fmt, k, spec) && spec.limbs > 1) out.push_back(fmt);
    }
  }
  return out;
}

std::vector<std::uint32_t> finite_patterns(const num::Format& fmt) {
  const std::uint32_t mask = (1u << fmt.total_bits()) - 1u;
  std::vector<std::uint32_t> out;
  for (std::uint32_t bits = 0; bits <= mask; ++bits) {
    if (decode_operand(bits, fmt).kind == DecodedOp::kFinite) out.push_back(bits);
  }
  return out;
}

/// Every product shift sf_w + sf_a + sf_bias some finite operand pair reaches.
std::set<int> reachable_shifts(const KernelSpec& spec) {
  std::set<int> sfs;
  for (const std::uint32_t bits : finite_patterns(spec.fmt)) {
    sfs.insert(decode_operand(bits, spec.fmt).sf);
  }
  std::set<int> out;
  for (const int a : sfs) {
    for (const int b : sfs) out.insert(a + b + spec.sf_bias);
  }
  return out;
}

/// One (weight, activation) operand pair and what it adds to an AVX2 limb:
/// |ssig_w * ssig_a| << (shift & 31) into limb shift >> 5.
struct LimbPair {
  std::uint32_t w = 0;
  std::uint32_t a = 0;
  int shift = -1;  ///< -1: no pair found
  u128 term = 0;
};

/// The finite operand pair with the largest limb term among those whose
/// product shift satisfies `want`.
template <typename Pred>
LimbPair max_limb_pair(const KernelSpec& spec, Pred want) {
  const std::vector<std::uint32_t> finite = finite_patterns(spec.fmt);
  LimbPair best;
  for (const std::uint32_t w : finite) {
    const DecodedOp dw = decode_operand(w, spec.fmt);
    for (const std::uint32_t a : finite) {
      const DecodedOp da = decode_operand(a, spec.fmt);
      const int shift = dw.sf + da.sf + spec.sf_bias;
      if (!want(shift)) continue;
      const u128 term = abs_i128(static_cast<i128>(dw.ssig) * da.ssig) << (shift & 31);
      if (best.shift < 0 || term > best.term) best = {w, a, shift, term};
    }
  }
  return best;
}

/// The pattern of the same magnitude and scale with the opposite sign.
std::uint32_t negated_pattern(const num::Format& fmt, std::uint32_t bits) {
  const DecodedOp d = decode_operand(bits, fmt);
  const std::uint32_t mask = (1u << fmt.total_bits()) - 1u;
  for (std::uint32_t n = 0; n <= mask; ++n) {
    const DecodedOp e = decode_operand(n, fmt);
    if (e.kind == DecodedOp::kFinite && e.ssig == -d.ssig && e.sf == d.sf) return n;
  }
  ADD_FAILURE() << fmt.name() << ": no negation of pattern " << bits;
  return bits;
}

TEST(KernelBound, SpecSelectsTheRegisterItsBoundRequires) {
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      for (const std::size_t k : {std::size_t{5}, std::size_t{33}, std::size_t{128}}) {
        KernelSpec spec(fmt);
        ASSERT_TRUE(make_kernel_spec(fmt, k, spec)) << fmt.name() << " k=" << k;
        EXPECT_EQ(spec.acc_kind, select_acc_kind(spec.need_bits)) << fmt.name();
        switch (spec.acc_kind) {
          case AccKind::kI64:
            EXPECT_LE(spec.need_bits, 62u) << fmt.name();
            break;
          case AccKind::kI128:
            EXPECT_LE(spec.need_bits, 125u) << fmt.name();
            break;
          case AccKind::kWide:
            EXPECT_LE(spec.need_bits, 250u) << fmt.name();
            break;
        }
        // Monotone in k through the carry-headroom term.
        KernelSpec spec2(fmt);
        ASSERT_TRUE(make_kernel_spec(fmt, 2 * k, spec2));
        EXPECT_GE(spec2.need_bits, spec.need_bits) << fmt.name();
      }
    }
  }
}

TEST(KernelBound, PositSpecDominatesTheEq4QuireWidth) {
  // The paper's eq. (4) quire is the width that makes a posit accumulation
  // exact; a kernel register narrower than it would be a correctness bug.
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      if (fmt.kind() != num::Kind::kPosit) continue;
      for (const std::size_t k : {std::size_t{5}, std::size_t{33}, std::size_t{128}}) {
        KernelSpec spec(fmt);
        ASSERT_TRUE(make_kernel_spec(fmt, k, spec));
        EXPECT_GE(spec.need_bits, quire_width_eq4(fmt.posit(), k))
            << fmt.name() << " k=" << k;
      }
    }
  }
}

TEST(KernelBound, AllMaxMagnitudePartialSumsFitTheRegister) {
  // Worst case by construction: every operand pair is the format's largest
  // finite magnitude and the bias is too, all the same sign, so the running
  // sum IS the largest partial sum any subset can reach. Track it exactly in
  // unsigned __int128 and hold it under 2^(need_bits - 1).
  const std::size_t k = 64;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      KernelSpec spec(fmt);
      ASSERT_TRUE(make_kernel_spec(fmt, k, spec));
      if (spec.need_bits > 120) continue;  // wide-register formats: no u128 mirror
      const Extremes e = find_extremes(fmt);
      const auto kern = MatmulKernel::create_scalar(fmt, k);
      ASSERT_NE(kern, nullptr);

      const u128 prod = product_image(spec, e.max_mag, e.max_mag);
      // The per-term claim behind the bound: each |shifted product| leaves
      // bit_width(k) carry headroom plus the sign bit.
      EXPECT_LE(bit_width_u128(prod),
                static_cast<int>(spec.need_bits) - std::bit_width(k) - 1)
          << fmt.name();

      u128 sum = bias_image(*kern, e.max_mag);
      const u128 limit = static_cast<u128>(1) << (spec.need_bits - 1);
      for (std::size_t i = 0; i < k; ++i) {
        sum += prod;
        ASSERT_LT(sum, limit) << fmt.name() << " after " << (i + 1) << " terms";
      }

      // And the kernels must still agree with step() on this exact pattern.
      std::vector<std::uint32_t> weights(2 * k, e.max_mag);
      std::vector<std::uint32_t> bias{e.max_mag, e.min_val};
      std::vector<std::uint32_t> acts(3 * k, e.max_mag);
      expect_kernels_match_step(fmt, k, weights, bias, acts, 3);
    }
  }
}

TEST(KernelBound, AlternatingSignCancellationStaysBoundedAndExact) {
  // Max-magnitude terms with alternating signs: partial sums swing through
  // near-cancellation, the classic failure mode of any early-rounding
  // shortcut. The exact walk must stay inside the register at every prefix,
  // and the kernels must reproduce the step() result bit-for-bit.
  const std::size_t k = 63;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      KernelSpec spec(fmt);
      ASSERT_TRUE(make_kernel_spec(fmt, k, spec));
      const Extremes e = find_extremes(fmt);

      std::vector<std::uint32_t> weights(k);
      for (std::size_t i = 0; i < k; ++i) weights[i] = i % 2 == 0 ? e.max_mag : e.min_val;

      if (spec.need_bits <= 120) {
        const i128 limit = static_cast<i128>(1) << (spec.need_bits - 1);
        i128 sum = 0;
        for (std::size_t i = 0; i < k; ++i) {
          sum += signed_product_image(spec, weights[i], e.max_mag);
          ASSERT_LT(abs_i128(sum), static_cast<u128>(limit))
              << fmt.name() << " after " << (i + 1) << " terms";
        }
      }

      std::vector<std::uint32_t> bias{e.min_val};
      std::vector<std::uint32_t> acts(2 * k, e.max_mag);
      expect_kernels_match_step(fmt, k, weights, bias, acts, 2);
    }
  }
}

TEST(KernelBound, NaRAndZeroInterleavesPropagateExactly) {
  // Zero operands must contribute exactly nothing in any position; a single
  // posit NaR anywhere in a row (or a NaR bias) must force the NaR readout
  // in every sample lane regardless of the surrounding magnitudes.
  const std::size_t k = 12;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      const Extremes e = find_extremes(fmt);
      const std::uint32_t zero = fmt.kind() == num::Kind::kPosit
                                     ? fmt.posit().zero_pattern()
                                     : (fmt.kind() == num::Kind::kFloat
                                            ? num::float_zero(fmt.flt())
                                            : num::fixed_from_raw(0, fmt.fixed()));

      std::vector<std::uint32_t> weights;
      std::vector<std::uint32_t> bias;
      // Row 0: zeros interleaved with max magnitudes. Row 1: adds NaR for
      // posits (the other families have no NaR pattern).
      for (std::size_t i = 0; i < k; ++i) weights.push_back(i % 2 == 0 ? zero : e.max_mag);
      bias.push_back(e.max_mag);
      if (fmt.kind() == num::Kind::kPosit) {
        const std::uint32_t nar = fmt.posit().nar_pattern();
        for (std::size_t i = 0; i < k; ++i) {
          weights.push_back(i % 3 == 0 ? nar : (i % 3 == 1 ? zero : e.max_mag));
        }
        bias.push_back(zero);
        // Row 2: finite weights but a NaR bias.
        for (std::size_t i = 0; i < k; ++i) weights.push_back(e.max_mag);
        bias.push_back(nar);
      }

      std::vector<std::uint32_t> acts;
      for (std::size_t s = 0; s < 4; ++s) {
        for (std::size_t i = 0; i < k; ++i) {
          acts.push_back(i % 2 == s % 2 ? zero : e.max_mag);
        }
      }
      expect_kernels_match_step(fmt, k, weights, bias, acts, 4);

      if (fmt.kind() == num::Kind::kPosit) {
        // Spot-check the propagation rule itself, not just oracle agreement:
        // rows 1 and 2 must read out NaR for every sample.
        const auto kern = MatmulKernel::create_scalar(fmt, k);
        ASSERT_NE(kern, nullptr);
        std::unique_ptr<Emac> unit = make_emac(fmt, k);
        std::vector<DecodedOp> wdec(weights.size());
        unit->decode_plane(weights.data(), weights.size(), wdec.data());
        const PackedPlane plane = kern->pack_plane(wdec.data(), bias.size(), bias.data());
        const std::size_t tile = kern->tile();
        std::vector<std::uint32_t> interleaved(k * tile, 0);
        for (std::size_t i = 0; i < k; ++i) {
          for (std::size_t s = 0; s < 4; ++s) interleaved[i * tile + s] = acts[s * k + i];
        }
        ActTile at;
        kern->pack_acts(interleaved.data(), k, 4, tile, at);
        std::vector<std::uint32_t> out(bias.size() * tile, 0);
        kern->matmul(plane, at, 4, out.data());
        for (std::size_t r = 1; r < bias.size(); ++r) {
          for (std::size_t s = 0; s < 4; ++s) {
            EXPECT_EQ(out[r * tile + s], fmt.posit().nar_pattern())
                << fmt.name() << " row " << r << " sample " << s;
          }
        }
      }
    }
  }
}

// --- Banded int64 limbs (the AVX2 lanes of the wide-quire formats) --------
//
// For these formats each AVX2 lane sums the products of one 32-bit shift
// band into its own int64 limb, pre-shifted by shift & 31. The cases below
// attack that split: k maximal terms piled into a single band, the same
// terms cancelling exactly, and products sitting on either side of each
// band edge. Each is checked bit for bit against the step() oracle, through
// create() (the AVX2 kernel on an AVX2 host) and create_scalar().

constexpr std::size_t kBandedK = 255;  // bit_width 8 at its largest value

TEST(KernelBound, EveryBandedFormatIsCoveredAndItsLimbsSpanEveryShift) {
  // The eight grid formats past the int64 bound (docs/performance.md); and
  // limbs is tight: the largest product shift falls in the last limb.
  const std::vector<num::Format> banded = banded_grid_formats(kBandedK);
  EXPECT_EQ(banded.size(), 8u);
  for (const num::Format& fmt : banded) {
    KernelSpec spec(fmt);
    ASSERT_TRUE(make_kernel_spec(fmt, kBandedK, spec));
    const LimbPair top = max_limb_pair(spec, [](int) { return true; });
    const int max_shift = *reachable_shifts(spec).rbegin();
    EXPECT_EQ(static_cast<std::size_t>(max_shift / 32) + 1, spec.limbs) << fmt.name();

    // The limb gate against the decoded operands: at the largest k the
    // gate admits, k copies of the largest limb term still leave the sign
    // bit and one margin bit of int64 free; one more bit of k closes it.
    std::size_t k_max = 0;
    for (int m = std::bit_width(kBandedK); m < 40; ++m) {
      const std::size_t k = (std::size_t{1} << m) - 1;
      KernelSpec s2(fmt);
      if (!make_kernel_spec(fmt, k, s2) || s2.limbs <= 1) break;
      k_max = k;
    }
    ASSERT_GE(k_max, kBandedK) << fmt.name();
    EXPECT_LT(top.term * k_max, static_cast<u128>(1) << 61) << fmt.name();
    KernelSpec past(fmt);
    ASSERT_TRUE(make_kernel_spec(fmt, k_max + 1, past));
    EXPECT_EQ(past.limbs, 0u) << fmt.name();
  }
}

TEST(KernelBound, MaxMagnitudeProductsPiledIntoOneBandStayExact) {
  const std::size_t samples = 5;  // one full and one ragged lane group
  for (const num::Format& fmt : banded_grid_formats(kBandedK)) {
    KernelSpec spec(fmt);
    ASSERT_TRUE(make_kernel_spec(fmt, kBandedK, spec));
    const Extremes e = find_extremes(fmt);
    for (std::size_t band = 0; band < spec.limbs; ++band) {
      const LimbPair p = max_limb_pair(
          spec, [band](int shift) { return static_cast<std::size_t>(shift) / 32 == band; });
      ASSERT_GE(p.shift, 0) << fmt.name() << " band " << band;
      const std::vector<std::uint32_t> weights(2 * kBandedK, p.w);
      const std::vector<std::uint32_t> bias{e.max_mag, e.min_val};
      const std::vector<std::uint32_t> acts(samples * kBandedK, p.a);
      expect_kernels_match_step(fmt, kBandedK, weights, bias, acts, samples);
    }
  }
}

TEST(KernelBound, AlternatingSignsCancelExactlyWithinOneBand) {
  // An even count of +t, -t terms: every limb returns to zero, so the row
  // reads out its bias alone.
  const std::size_t k = kBandedK - 1;
  const std::size_t samples = 5;
  for (const num::Format& fmt : banded_grid_formats(k)) {
    KernelSpec spec(fmt);
    ASSERT_TRUE(make_kernel_spec(fmt, k, spec));
    const Extremes e = find_extremes(fmt);
    std::unique_ptr<Emac> unit = make_emac(fmt, k);
    for (std::size_t band = 0; band < spec.limbs; ++band) {
      const LimbPair p = max_limb_pair(
          spec, [band](int shift) { return static_cast<std::size_t>(shift) / 32 == band; });
      ASSERT_GE(p.shift, 0) << fmt.name() << " band " << band;
      const std::uint32_t neg = negated_pattern(fmt, p.w);
      std::vector<std::uint32_t> weights(k);
      for (std::size_t i = 0; i < k; ++i) weights[i] = i % 2 == 0 ? p.w : neg;
      const std::vector<std::uint32_t> bias{e.max_mag};
      const std::vector<std::uint32_t> acts(samples * k, p.a);
      std::vector<std::uint32_t> oracle;
      expect_kernels_match_step(fmt, k, weights, bias, acts, samples, &oracle);
      unit->reset(e.max_mag);
      for (const std::uint32_t out : oracle) {
        EXPECT_EQ(out, unit->result()) << fmt.name() << " band " << band;
      }
    }
  }
}

TEST(KernelBound, ProductsOnBothSidesOfEveryBandEdgeStayExact) {
  // The largest term of the last shift below each edge 32j next to one of
  // the first shift at or above it (31/32, 63/64, ... where the format
  // reaches those shifts), interleaved in one row, then with the upper side
  // negated so the row straddles zero.
  const std::size_t samples = 5;
  std::set<int> exact_edge_shifts;
  for (const num::Format& fmt : banded_grid_formats(kBandedK)) {
    KernelSpec spec(fmt);
    ASSERT_TRUE(make_kernel_spec(fmt, kBandedK, spec));
    const Extremes e = find_extremes(fmt);
    const std::set<int> shifts = reachable_shifts(spec);
    for (std::size_t band = 1; band < spec.limbs; ++band) {
      const int edge = static_cast<int>(32 * band);
      const auto first_above = shifts.lower_bound(edge);
      ASSERT_NE(first_above, shifts.end()) << fmt.name() << " edge " << edge;
      ASSERT_NE(first_above, shifts.begin()) << fmt.name() << " edge " << edge;
      const int lo = *std::prev(first_above);
      const int hi = *first_above;
      if (lo == edge - 1) exact_edge_shifts.insert(lo);
      if (hi == edge) exact_edge_shifts.insert(hi);
      const LimbPair below = max_limb_pair(spec, [lo](int s) { return s == lo; });
      const LimbPair above = max_limb_pair(spec, [hi](int s) { return s == hi; });
      const std::uint32_t above_neg = negated_pattern(fmt, above.w);
      std::vector<std::uint32_t> weights;
      std::vector<std::uint32_t> acts(samples * kBandedK);
      for (std::size_t i = 0; i < kBandedK; ++i) {
        weights.push_back(i % 2 == 0 ? below.w : above.w);
      }
      for (std::size_t i = 0; i < kBandedK; ++i) {
        weights.push_back(i % 2 == 0 ? below.w : above_neg);
      }
      for (std::size_t s = 0; s < samples; ++s) {
        for (std::size_t i = 0; i < kBandedK; ++i) {
          acts[s * kBandedK + i] = i % 2 == 0 ? below.a : above.a;
        }
      }
      const std::vector<std::uint32_t> bias{e.max_mag, e.min_val};
      expect_kernels_match_step(fmt, kBandedK, weights, bias, acts, samples);
    }
  }
  // The grid reaches both sides of the first two edges exactly somewhere.
  for (const int s : {31, 32, 63, 64}) EXPECT_EQ(exact_edge_shifts.count(s), 1u) << s;
}

}  // namespace
}  // namespace dp::emac
