// Quickstart: posit arithmetic, EMAC exactness, and format comparison in
// ~60 lines. Build & run:
//   cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart

#include <cstdio>
#include <vector>

#include "emac/emac.hpp"
#include "emac/naive_mac.hpp"
#include "numeric/format.hpp"

int main() {
  using namespace dp;

  // --- 1. Posit values -------------------------------------------------------
  const num::PositFormat p8{8, 1};  // 8 bits, 1 exponent bit
  const std::uint32_t a = num::posit_from_double(1.5, p8);
  const std::uint32_t b = num::posit_from_double(-0.1875, p8);
  std::printf("posit<8,1>: 1.5 encodes as 0x%02x, -0.1875 as 0x%02x\n", a, b);
  std::printf("a + b = %g, a * b = %g\n", num::posit_to_double(num::posit_add(a, b, p8), p8),
              num::posit_to_double(num::posit_mul(a, b, p8), p8));
  std::printf("maxpos = %g, minpos = %g, dynamic range = %.1f decades\n\n", p8.maxpos(),
              p8.minpos(), p8.dynamic_range());

  // --- 2. The EMAC: one rounding per dot product -----------------------------
  // Accumulate 8.0 + 63 * (1/16). Exact answer: 11.9375.
  const num::Format fmt = p8;
  const std::size_t k = 64;
  const auto emac = emac::make_emac(fmt, k);
  std::vector<std::uint32_t> w{fmt.from_double(8.0)}, x{fmt.from_double(1.0)};
  for (std::size_t i = 1; i < k; ++i) {
    w.push_back(fmt.from_double(1.0 / 16.0));
    x.push_back(fmt.from_double(1.0));
  }
  emac->reset();
  for (std::size_t i = 0; i < k; ++i) emac->step(w[i], x[i]);
  const double exact_emac = fmt.to_double(emac->result());
  const double naive = fmt.to_double(emac::naive_mac(fmt, 0, w, x));
  std::printf("dot product, exact answer 11.9375:\n");
  std::printf("  EMAC (quire, one rounding): %g\n", exact_emac);
  std::printf("  naive MAC (round each step): %g  <- swamped the small terms\n\n", naive);

  // --- 3. Compare the three formats at 8 bits --------------------------------
  std::printf("quantizing 0.3 at 8 bits:\n");
  for (const num::Format f : {num::Format{num::PositFormat{8, 0}},
                              num::Format{num::FloatFormat{4, 3}},
                              num::Format{num::FixedFormat{8, 7}}}) {
    const double q = f.to_double(f.from_double(0.3));
    std::printf("  %-14s -> %-10g (error %+.5f)\n", f.name().c_str(), q, q - 0.3);
  }
  return 0;
}
