// Reproduces Fig. 2 and Table I.
//
// Fig. 2(a): the value distribution of a 7-bit (es = 0) posit — most
// representable values cluster in [-1, 1].
// Fig. 2(b): the weight distribution of a trained DNN clusters in the same
// range. The paper uses AlexNet; with no ImageNet here, we histogram the
// trained WDBC network (docs/reproducing.md#substitutions) — the
// clustering phenomenon is architecture-independent.
// Table I: regime run-length interpretation.

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/experiment.hpp"
#include "numeric/posit.hpp"

namespace {

void print_histogram(const char* title, const std::vector<double>& values,
                     const std::vector<double>& edges) {
  std::printf("%s\n", title);
  std::vector<int> counts(edges.size() + 1, 0);
  for (const double v : values) {
    std::size_t b = 0;
    while (b < edges.size() && v >= edges[b]) ++b;
    ++counts[b];
  }
  const int total = static_cast<int>(values.size());
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (b == 0) {
      std::printf("  (-inf, %5.2f) ", edges[0]);
    } else if (b == edges.size()) {
      std::printf("  [%5.2f, +inf) ", edges[b - 1]);
    } else {
      std::printf("  [%5.2f, %5.2f) ", edges[b - 1], edges[b]);
    }
    const int bar = counts[b] * 60 / std::max(total, 1);
    std::printf("%6d |", counts[b]);
    for (int i = 0; i < bar; ++i) std::printf("#");
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace dp;

  // --- Table I ------------------------------------------------------------
  std::printf("TABLE I: regime interpretation (run-length encoded k)\n");
  std::printf("  %-8s %s\n", "binary", "regime k");
  const num::PositFormat p8{8, 0};
  struct Row {
    const char* pattern;
    std::uint32_t bits;  // embedded into an 8-bit posit
  };
  const Row rows[] = {
      {"0001", 0b00001111}, {"001", 0b00011111}, {"01", 0b00111111},
      {"10", 0b01011111},   {"110", 0b01101111}, {"1110", 0b01110111},
  };
  for (const auto& r : rows) {
    std::printf("  %-8s %d\n", r.pattern, num::posit_fields(r.bits, p8).k);
  }
  std::printf("\n");

  // --- Fig. 2(a): 7-bit posit (es=0) value distribution ---------------------
  const num::PositFormat p7{7, 0};
  std::vector<double> posit_values;
  for (std::uint32_t bits = 0; bits < (1u << 7); ++bits) {
    if (bits == p7.nar_pattern()) continue;
    posit_values.push_back(num::posit_to_double(bits, p7));
  }
  const std::vector<double> edges{-8, -4, -2, -1, -0.5, 0.5, 1, 2, 4, 8};
  print_histogram("FIG 2(a): 7-bit posit (es=0) representable values", posit_values,
                  edges);

  // --- Fig. 2(b): trained network weight distribution -----------------------
  const core::TrainedTask task = core::prepare_task(core::wbc_task());
  std::vector<double> weights;
  for (const float w : task.net.parameters()) weights.push_back(w);
  print_histogram("FIG 2(b): trained WDBC network weight distribution", weights, edges);

  int in_unit = 0;
  for (const double w : weights) {
    if (w >= -1.0 && w <= 1.0) ++in_unit;
  }
  std::printf("weights within [-1, 1]: %.1f%%  (paper: heavy clustering in [-1,1])\n",
              100.0 * in_unit / static_cast<double>(weights.size()));
  return 0;
}
