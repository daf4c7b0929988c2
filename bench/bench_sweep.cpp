// §IV-B extended sweep: "all possible combinations of [5,8] bit-widths for
// the three numerical formats" — full accuracy grid per dataset, including
// the q sweep for fixed-point that the paper does not report (our best-q
// fixed recovers most of the paper configuration's clipping loss; see
// docs/reproducing.md).

#include <cstdio>

#include "core/experiment.hpp"

int main() {
  using namespace dp;

  for (const auto& spec : core::paper_tasks()) {
    const core::TrainedTask task = core::prepare_task(spec);
    std::printf("=== %s (float32 reference %.2f%%, test n=%zu) ===\n", spec.name.c_str(),
                task.float32_test_accuracy * 100.0, task.split.test.size());
    std::printf("%-16s %4s %10s %14s\n", "format", "n", "accuracy", "degradation");
    for (int i = 0; i < 48; ++i) std::printf("-");
    std::printf("\n");
    for (int n = 5; n <= 8; ++n) {
      for (const auto& r : core::sweep_formats(task, n)) {
        std::printf("%-16s %4d %9.2f%% %13.2f%%\n", r.format.name().c_str(), n,
                    r.accuracy * 100.0, r.degradation_points);
      }
    }
    // Per-width best-of-format summary (paper: "the best performance drops
    // sub 8-bit by [0-4.21]% compared to 32-bit floating-point").
    std::printf("\nbest per width:\n");
    for (int n = 5; n <= 8; ++n) {
      const auto results = core::sweep_formats(task, n);
      const auto bp = core::best_of_kind(results, num::Kind::kPosit);
      const auto bf = core::best_of_kind(results, num::Kind::kFloat);
      const auto bx = core::best_of_kind(results, num::Kind::kFixed);
      std::printf("  n=%d  posit %6.2f%%  float %6.2f%%  fixed %6.2f%%\n", n,
                  bp ? bp->accuracy * 100 : 0, bf ? bf->accuracy * 100 : 0,
                  bx ? bx->accuracy * 100 : 0);
    }
    std::printf("\n");
  }
  return 0;
}
