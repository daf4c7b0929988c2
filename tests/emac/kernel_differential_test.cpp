// Differential fuzz suite for the register-blocked multi-sample matmul
// kernels: for every format of the paper sweep grid (n in [5,8]) and a range
// of accumulation lengths and batch shapes, the dispatched kernel
// (MatmulKernel::create — AVX2 where eligible) and the portable
// scalar-blocked kernel (create_scalar) must both be bit-identical, on every
// output word, to the oracle: the paper's step() recurrence — reset(bias);
// step()*k; result().
//
// Shapes deliberately include non-multiples of the kernel tile (1, tile-1,
// tile, tile+1, 7, 64, 200 samples) so ragged tails, lone samples, and
// multi-tile batches are all covered. Operand patterns are seeded-random
// over the full encoding space with extra weight on the special patterns
// (zero, posit NaR), so NaR propagation and zero skipping are fuzzed too.
// Every assertion message carries the reproducer: seed, format, k, rows,
// samples, and tile.
//
// The DotEquivalence suites below pin the single dot product — one weight
// row against one sample, the shape of every single-sample Session call —
// on fully random rows (Inf/NaN patterns included where the format has
// them) and adversarial rows (saturation pile-ups, exact cancellation,
// all-zero, all-NaR), over the grid plus wider formats, against the
// RTL-faithful unit too; the register each spec selects, and the fallback
// when none is wide enough; and the shared decode table every unit and
// kernel reads operands through. KernelDispatch pins which kernel, and how
// many AVX2 limbs, each grid format gets at the Table II fan-ins.

#include "emac/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
#include <vector>

#include "emac/decode_lut.hpp"
#include "emac/emac.hpp"
#include "numeric/format.hpp"

namespace dp::emac {
namespace {

/// Masked-uniform pattern with 1-in-8 odds of a special pattern (zero, or
/// NaR for posits) — specials are rare under pure uniform sampling at n = 8.
std::uint32_t random_pattern(std::mt19937& rng, const num::Format& fmt) {
  const std::uint32_t mask = (1u << fmt.total_bits()) - 1u;
  if (rng() % 8 == 0) {
    switch (fmt.kind()) {
      case num::Kind::kPosit:
        return rng() % 2 == 0 ? fmt.posit().zero_pattern() : fmt.posit().nar_pattern();
      case num::Kind::kFloat:
        return num::float_zero(fmt.flt(), /*neg=*/rng() % 2 == 0);
      case num::Kind::kFixed:
        return num::fixed_from_raw(0, fmt.fixed());
    }
  }
  return rng() & mask;
}

struct Case {
  num::Format fmt;
  std::size_t k;
  std::size_t rows;
  std::size_t samples;
  std::uint32_t seed;
};

std::string repro(const Case& c, const MatmulKernel& kern) {
  std::ostringstream os;
  os << "reproducer: seed=" << c.seed << " fmt=" << c.fmt.name() << " k=" << c.k
     << " rows=" << c.rows << " samples=" << c.samples << " kernel=" << kern.name()
     << " tile=" << kern.tile();
  return os.str();
}

/// Drive one kernel over the whole batch (tiled, last tile ragged) and check
/// every output word against `expected[s*rows + r]`.
void check_kernel(const Case& c, MatmulKernel& kern,
                  const std::vector<std::uint32_t>& weight_bits,
                  const std::vector<std::uint32_t>& bias_bits,
                  const std::vector<std::uint32_t>& act_bits,  // [s*k + i]
                  const std::vector<std::uint32_t>& expected) {
  SCOPED_TRACE(repro(c, kern));
  const std::size_t tile = kern.tile();
  ASSERT_LE(tile, kMaxKernelTile);

  // Weights are packed once per kernel, like runtime::Model does it.
  std::vector<DecodedOp> wdec(weight_bits.size());
  std::unique_ptr<Emac> unit = make_emac(c.fmt, c.k);
  unit->decode_plane(weight_bits.data(), weight_bits.size(), wdec.data());
  const PackedPlane plane = kern.pack_plane(wdec.data(), c.rows, bias_bits.data());

  std::vector<std::uint32_t> interleaved(c.k * tile);
  std::vector<std::uint32_t> out(c.rows * tile);
  ActTile acts;
  for (std::size_t t0 = 0; t0 < c.samples; t0 += tile) {
    const std::size_t nrows = std::min(tile, c.samples - t0);
    interleaved.assign(c.k * tile, 0);
    for (std::size_t i = 0; i < c.k; ++i) {
      for (std::size_t s = 0; s < nrows; ++s) {
        interleaved[i * tile + s] = act_bits[(t0 + s) * c.k + i];
      }
    }
    kern.pack_acts(interleaved.data(), c.k, nrows, tile, acts);
    out.assign(c.rows * tile, 0xffffffffu);
    kern.matmul(plane, acts, nrows, out.data());
    for (std::size_t r = 0; r < c.rows; ++r) {
      for (std::size_t s = 0; s < nrows; ++s) {
        ASSERT_EQ(out[r * tile + s], expected[(t0 + s) * c.rows + r])
            << "mismatch at weight row " << r << ", sample " << (t0 + s);
      }
    }
  }
}

/// Both kernels against the step oracle on the given operands: weights
/// [r*k + i], one bias per row, activations [s*k + i]. `bit_accurate` runs
/// the oracle on the RTL-faithful unit instead of the fast one.
void check_case(const Case& c, const std::vector<std::uint32_t>& weight_bits,
                const std::vector<std::uint32_t>& bias_bits,
                const std::vector<std::uint32_t>& act_bits, bool bit_accurate = false) {
  // The oracle: the step() recurrence, one virtual call per MAC.
  std::unique_ptr<Emac> unit = make_emac(c.fmt, c.k, bit_accurate);
  std::vector<std::uint32_t> expected(c.samples * c.rows);  // [s*rows + r]
  for (std::size_t s = 0; s < c.samples; ++s) {
    for (std::size_t r = 0; r < c.rows; ++r) {
      unit->reset(bias_bits[r]);
      for (std::size_t i = 0; i < c.k; ++i) {
        unit->step(weight_bits[r * c.k + i], act_bits[s * c.k + i]);
      }
      expected[s * c.rows + r] = unit->result();
    }
  }

  std::unique_ptr<MatmulKernel> dispatched = MatmulKernel::create(c.fmt, c.k);
  std::unique_ptr<MatmulKernel> scalar = MatmulKernel::create_scalar(c.fmt, c.k);
  ASSERT_NE(dispatched, nullptr) << c.fmt.name() << " k=" << c.k;
  ASSERT_NE(scalar, nullptr) << c.fmt.name() << " k=" << c.k;
  check_kernel(c, *dispatched, weight_bits, bias_bits, act_bits, expected);
  check_kernel(c, *scalar, weight_bits, bias_bits, act_bits, expected);
}

void run_case(const Case& c) {
  std::mt19937 rng(c.seed);
  std::vector<std::uint32_t> weight_bits(c.rows * c.k);
  std::vector<std::uint32_t> bias_bits(c.rows);
  std::vector<std::uint32_t> act_bits(c.samples * c.k);
  for (auto& b : weight_bits) b = random_pattern(rng, c.fmt);
  for (auto& b : bias_bits) b = random_pattern(rng, c.fmt);
  for (auto& b : act_bits) b = random_pattern(rng, c.fmt);
  check_case(c, weight_bits, bias_bits, act_bits);
}

/// Sample counts relative to a tile of T: lone sample, T-1/T/T+1 around the
/// boundary, a ragged 7, one full multi-tile burst, and a long tail case.
std::vector<std::size_t> sample_plan(std::size_t tile) {
  std::vector<std::size_t> plan{1, 7, 64, 200};
  if (tile > 1) plan.push_back(tile - 1);
  plan.push_back(tile);
  plan.push_back(tile + 1);
  return plan;
}

TEST(KernelDifferential, BitIdenticalAcrossPaperGridShapesAndKernels) {
  std::uint32_t seed = 20260808u;  // deterministic; bumped per case below
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      for (const std::size_t k : {std::size_t{5}, std::size_t{20}}) {
        // Tile depends on dispatch; probe it once per (fmt, k).
        const auto probe = MatmulKernel::create(fmt, k);
        ASSERT_NE(probe, nullptr) << fmt.name() << " k=" << k;
        for (const std::size_t samples : sample_plan(probe->tile())) {
          run_case({fmt, k, /*rows=*/4, samples, seed++});
        }
      }
    }
  }
}

TEST(KernelDifferential, SingleElementRowsAndSingleRowPlanes) {
  // Degenerate shapes: k = 1 (one MAC per neuron) and rows = 1.
  std::uint32_t seed = 77u;
  for (const num::Format& fmt :
       {num::Format{num::PositFormat{8, 0}}, num::Format{num::FloatFormat{4, 3}},
        num::Format{num::FixedFormat{8, 6}}}) {
    run_case({fmt, /*k=*/1, /*rows=*/3, /*samples=*/9, seed++});
    run_case({fmt, /*k=*/6, /*rows=*/1, /*samples=*/17, seed++});
  }
}

TEST(KernelDifferential, LongAccumulationLengths) {
  // k large enough to stress the carry headroom (bit_width(k) = 8) while
  // staying cheap: 200 MACs per neuron, across one format per family.
  std::uint32_t seed = 3001u;
  for (const num::Format& fmt :
       {num::Format{num::PositFormat{8, 1}}, num::Format{num::FloatFormat{5, 2}},
        num::Format{num::FixedFormat{8, 4}}}) {
    run_case({fmt, /*k=*/200, /*rows=*/3, /*samples=*/21, seed++});
  }
}

TEST(KernelDifferential, RejectsUnsupportedShapes) {
  const num::Format fmt{num::PositFormat{8, 0}};
  EXPECT_EQ(MatmulKernel::create(fmt, 0), nullptr);
  EXPECT_EQ(MatmulKernel::create_scalar(fmt, 0), nullptr);

  const auto kern = MatmulKernel::create_scalar(fmt, 4);
  ASSERT_NE(kern, nullptr);
  std::vector<std::uint32_t> bits(4 * kern->tile(), 0);
  ActTile acts;
  kern->pack_acts(bits.data(), 4, kern->tile(), kern->tile(), acts);
  std::vector<std::uint32_t> out(kern->tile());
  const PackedPlane empty_plane;
  // More live samples than the tile holds must throw, not truncate.
  EXPECT_THROW(kern->matmul(empty_plane, acts, kern->tile() + 1, out.data()),
               std::invalid_argument);
}

// --- Single dot products ----------------------------------------------------

std::uint32_t width_mask(const num::Format& fmt) {
  return fmt.total_bits() >= 32 ? ~std::uint32_t{0}
                                : ((std::uint32_t{1} << fmt.total_bits()) - 1);
}

/// The paper's sweep grid (posit es in {0..3} per width, float, fixed for
/// n in [5,8]) plus wider configurations past the 8-bit range.
std::vector<num::Format> all_formats() {
  std::vector<num::Format> out;
  for (int n = 5; n <= 8; ++n) {
    for (const auto& f : num::paper_format_grid(n)) out.push_back(f);
  }
  out.push_back(num::PositFormat{16, 1});
  out.push_back(num::FloatFormat{5, 10});
  out.push_back(num::FixedFormat{16, 8});
  return out;
}

/// Saturation / cancellation / special patterns for adversarial rows.
std::vector<std::uint32_t> extreme_patterns(const num::Format& fmt) {
  const std::uint32_t mask = width_mask(fmt);
  switch (fmt.kind()) {
    case num::Kind::kPosit: {
      const auto& f = fmt.posit();
      const std::uint32_t maxpos = (std::uint32_t{1} << (f.n - 1)) - 1;
      return {f.zero_pattern(), f.nar_pattern(), maxpos, (~maxpos + 1) & mask,
              /*minpos=*/1u, /*-minpos=*/mask};
    }
    case num::Kind::kFloat: {
      const auto& f = fmt.flt();
      const std::uint32_t maxfin =
          (static_cast<std::uint32_t>(f.expmax()) << f.wf) | ((1u << f.wf) - 1);
      const std::uint32_t sign = 1u << (f.we + f.wf);
      return {num::float_zero(f), num::float_zero(f, true), maxfin, maxfin | sign,
              /*min subnormal=*/1u, (1u | sign)};
    }
    case num::Kind::kFixed: {
      const auto& f = fmt.fixed();
      return {0u, static_cast<std::uint32_t>(f.raw_max()) & mask,
              static_cast<std::uint32_t>(f.raw_min()) & mask, 1u, mask};
    }
  }
  return {};
}

class DotEquivalenceTest : public ::testing::TestWithParam<num::Format> {};

TEST_P(DotEquivalenceTest, RandomRowsMatchStepLoop) {
  const num::Format fmt = GetParam();
  const std::uint32_t mask = width_mask(fmt);
  std::mt19937 rng(0xD07 + static_cast<unsigned>(fmt.total_bits()));
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{64}, std::size_t{200}}) {
    for (std::uint32_t trial = 0; trial < 20; ++trial) {
      std::vector<std::uint32_t> w(k), a(k);
      for (auto& v : w) v = rng() & mask;
      for (auto& v : a) v = rng() & mask;
      const std::uint32_t bias = rng() & mask;
      check_case({fmt, k, 1, 1, trial}, w, {bias}, a);
    }
  }
}

TEST_P(DotEquivalenceTest, ExtremeRowsMatchStepLoop) {
  const num::Format fmt = GetParam();
  const std::vector<std::uint32_t> specials = extreme_patterns(fmt);
  std::mt19937 rng(0xE57A + static_cast<unsigned>(fmt.total_bits()));
  const std::size_t k = 48;
  // Rows drawn only from the special patterns: saturation pile-ups,
  // +maxpos/-maxpos cancellation, zero rows, NaR rows.
  for (std::uint32_t trial = 0; trial < 40; ++trial) {
    std::vector<std::uint32_t> w(k), a(k);
    for (auto& v : w) v = specials[rng() % specials.size()];
    for (auto& v : a) v = specials[rng() % specials.size()];
    check_case({fmt, k, 1, 1, trial}, w, {specials[rng() % specials.size()]}, a);
  }
  // Deterministic worst cases: every pair saturating with matched signs
  // (monotone pile-up) and alternating signs (exact cancellation to zero).
  std::vector<std::uint32_t> w(k, specials[2]), a(k, specials[2]);
  check_case({fmt, k, 1, 1, 0}, w, {0}, a);
  for (std::size_t i = 1; i < k; i += 2) a[i] = specials[3];
  check_case({fmt, k, 1, 1, 1}, w, {0}, a);
}

INSTANTIATE_TEST_SUITE_P(SweepGrid, DotEquivalenceTest, ::testing::ValuesIn(all_formats()));

TEST(DotEquivalence, RtlModelUsesGenericFallback) {
  // The RTL-faithful posit unit computes the same dot product as the
  // kernels: its step() recurrence is the oracle here.
  const num::PositFormat fmt{6, 1};
  std::mt19937 rng(77);
  const std::size_t k = 16;
  for (std::uint32_t trial = 0; trial < 10; ++trial) {
    std::vector<std::uint32_t> w(k), a(k);
    for (auto& v : w) v = rng() & fmt.mask();
    for (auto& v : a) v = rng() & fmt.mask();
    const std::uint32_t bias = rng() & fmt.mask();
    check_case({num::Format{fmt}, k, 1, 1, trial}, w, {bias}, a, /*bit_accurate=*/true);
  }
  // A spec whose bound exceeds every register has no kernel: callers fall
  // back to the generic step() recurrence.
  const num::Format wide{num::PositFormat{16, 3}};
  KernelSpec spec(wide);
  EXPECT_FALSE(make_kernel_spec(wide, k, spec));
  EXPECT_EQ(MatmulKernel::create(wide, k), nullptr);
}

TEST(DotEquivalence, NarrowAccumulatorSelection) {
  // posit<8,0>, k=128: eq. (4)-style bound is 4*6*1 + 2*6 + 8 + 2 = 46 bits
  // -> int64. posit<8,1>: 4*12 + 2*5 + 8 + 2 = 68 -> __int128. posit<8,3>
  // at k=64: 4*48 + 2*3 + 7 + 2 = 207 -> Acc256. float<4,3> (we=4, wf=3):
  // 2*14 + 2*3 + 2 + 8 + 1 = 45 -> int64; float<5,10> -> __int128.
  const struct {
    num::Format fmt;
    std::size_t k;
    AccKind kind;
  } pinned[] = {{num::PositFormat{8, 0}, 128, AccKind::kI64},
                {num::PositFormat{8, 1}, 128, AccKind::kI128},
                {num::PositFormat{8, 3}, 64, AccKind::kWide},
                {num::FloatFormat{4, 3}, 128, AccKind::kI64},
                {num::FloatFormat{5, 10}, 128, AccKind::kI128}};
  for (const auto& p : pinned) {
    KernelSpec spec(p.fmt);
    ASSERT_TRUE(make_kernel_spec(p.fmt, p.k, spec)) << p.fmt.name() << " k=" << p.k;
    EXPECT_EQ(spec.acc_kind, p.kind) << p.fmt.name() << " k=" << p.k;
  }
}

/// True when create() should hand out the AVX2 kernel wherever the spec
/// admits it: compiled in, reported by the CPU, not forced off.
bool avx2_dispatch_expected() {
#if defined(DP_HAVE_AVX2_KERNEL)
  const char* forced = std::getenv("DP_FORCE_SCALAR_KERNEL");
  if (forced != nullptr && *forced != '\0' && std::strcmp(forced, "0") != 0) return false;
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// Table II layer fan-ins: Iris 4, WBC 30, Mushroom 119 inputs; hidden
/// widths 16, 32 and 8.
constexpr std::size_t kTableIIFanIns[] = {4, 30, 119, 16, 32, 8};

TEST(KernelDispatch, BandedLimbCountsAndTheLimbGate) {
  // The grid formats whose quire bound exceeds int64 keep one int64 limb
  // per 32-bit shift band: B = max_shift / 32 + 1, with max_shift 4S for
  // posits and 2 * expmax for floats. posit<6,2>'s largest shift is exactly
  // 64, the first shift of a third band.
  const struct {
    num::Format fmt;
    std::size_t limbs;
  } banded[] = {{num::PositFormat{8, 1}, 2}, {num::FloatFormat{5, 1}, 2},
                {num::FloatFormat{5, 2}, 2}, {num::PositFormat{6, 2}, 3},
                {num::PositFormat{7, 2}, 3}, {num::PositFormat{8, 2}, 4},
                {num::PositFormat{7, 3}, 6}, {num::PositFormat{8, 3}, 7}};
  std::size_t banded_in_grid = 0;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      for (const std::size_t k : kTableIIFanIns) {
        KernelSpec spec(fmt);
        ASSERT_TRUE(make_kernel_spec(fmt, k, spec)) << fmt.name() << " k=" << k;
        EXPECT_NE(spec.limbs, 0u) << fmt.name() << " k=" << k;
        EXPECT_EQ(spec.limbs == 1, spec.acc_kind == AccKind::kI64) << fmt.name();
      }
      KernelSpec spec(fmt);
      ASSERT_TRUE(make_kernel_spec(fmt, 119, spec));
      if (spec.limbs > 1) ++banded_in_grid;
    }
  }
  EXPECT_EQ(banded_in_grid, std::size(banded));
  for (const auto& p : banded) {
    for (const std::size_t k : kTableIIFanIns) {
      KernelSpec spec(p.fmt);
      ASSERT_TRUE(make_kernel_spec(p.fmt, k, spec)) << p.fmt.name() << " k=" << k;
      EXPECT_NE(spec.acc_kind, AccKind::kI64) << p.fmt.name() << " k=" << k;
      EXPECT_EQ(spec.limbs, p.limbs) << p.fmt.name() << " k=" << k;
    }
  }
  // posit<16,1>: 26-bit products leave a band no room for 30 of them
  // (26 + 31 + 5 + 1 > 62), so it has no limb count and keeps the portable
  // kernel on every host.
  const num::Format past_gate{num::PositFormat{16, 1}};
  KernelSpec spec(past_gate);
  ASSERT_TRUE(make_kernel_spec(past_gate, 30, spec));
  EXPECT_EQ(spec.limbs, 0u);
  const std::unique_ptr<MatmulKernel> kern = MatmulKernel::create(past_gate, 30);
  ASSERT_NE(kern, nullptr);
  EXPECT_STREQ(kern->name(), "scalar-blocked");
}

TEST(KernelDispatch, EveryPaperGridFormatTakesAvx2) {
  if (!avx2_dispatch_expected()) {
    GTEST_SKIP() << "AVX2 kernel not compiled in, not supported, or forced off";
  }
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      for (const std::size_t k : kTableIIFanIns) {
        const std::unique_ptr<MatmulKernel> kern = MatmulKernel::create(fmt, k);
        ASSERT_NE(kern, nullptr) << fmt.name() << " k=" << k;
        EXPECT_STREQ(kern->name(), "avx2") << fmt.name() << " k=" << k;
      }
    }
  }
}

TEST(DotEquivalence, DecodeLutIsSharedAcrossUnitsAndClones) {
  // Units, clones and kernels decode operands through one shared table.
  const num::Format fmt{num::PositFormat{8, 1}};
  const auto lut1 = shared_decode_lut(fmt);
  const auto lut2 = shared_decode_lut(fmt);
  ASSERT_NE(lut1, nullptr);
  EXPECT_EQ(lut1.get(), lut2.get());  // one immutable table per format
  // Formats wider than the LUT cap decode per operand instead.
  EXPECT_EQ(shared_decode_lut(num::Format{num::PositFormat{18, 1}}), nullptr);
  // Entry sanity: zero / NaR / finite classification and the signed
  // significand convention (ssig == 0 for zero and NaR).
  const auto& f = fmt.posit();
  EXPECT_EQ((*lut1)[f.zero_pattern()].kind, DecodedOp::kZero);
  EXPECT_EQ((*lut1)[f.nar_pattern()].kind, DecodedOp::kNaR);
  EXPECT_EQ((*lut1)[f.nar_pattern()].ssig, 0);
  const DecodedOp& one = (*lut1)[0x40];  // posit pattern for +1.0
  EXPECT_EQ(one.kind, DecodedOp::kFinite);
  EXPECT_EQ(one.ssig, static_cast<std::int64_t>(one.sig));
}

}  // namespace
}  // namespace dp::emac
