// Ablations of the design choices listed in the bench_ablation row of
// docs/reproducing.md#map:
//  1. Exact (EMAC/quire) accumulation vs a naive round-every-step MAC —
//     the paper's central premise.
//  2. es sensitivity for 8-bit posits (paper: best at es in {0,2}).
//  3. RNE quantization vs truncation when converting trained weights.

#include <cstdio>
#include <vector>

#include "core/experiment.hpp"
#include "emac/naive_mac.hpp"
#include "runtime/session.hpp"

namespace {

using namespace dp;

/// Inference accuracy when every neuron uses the naive MAC instead of the
/// exact EMAC.
double naive_accuracy(const core::TrainedTask& task, const num::Format& fmt) {
  const nn::QuantizedNetwork q = nn::quantize(task.net, fmt);
  std::size_t correct = 0;
  for (std::size_t s = 0; s < task.split.test.x.size(); ++s) {
    std::vector<std::uint32_t> act;
    for (const double v : task.split.test.x[s]) act.push_back(fmt.from_double(v));
    for (const auto& layer : q.layers) {
      std::vector<std::uint32_t> next(layer.fan_out);
      for (std::size_t j = 0; j < layer.fan_out; ++j) {
        const std::uint32_t* wrow = layer.weights.data() + j * layer.fan_in;
        std::uint32_t out = emac::naive_mac(
            fmt, layer.bias[j], {wrow, layer.fan_in}, {act.data(), act.size()});
        if (layer.activation == nn::Activation::kReLU) {
          if (fmt.to_double(out) < 0.0) out = fmt.from_double(0.0);
        }
        next[j] = out;
      }
      act = std::move(next);
    }
    int best = 0;
    double best_v = fmt.to_double(act[0]);
    for (std::size_t c = 1; c < act.size(); ++c) {
      const double v = fmt.to_double(act[c]);
      if (v > best_v) {
        best_v = v;
        best = static_cast<int>(c);
      }
    }
    if (best == task.split.test.y[s]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(task.split.test.x.size());
}

}  // namespace

int main() {
  std::printf("ABLATION 1: exact EMAC vs naive round-every-step MAC (8-bit)\n");
  std::printf("%-10s %-14s %12s %12s %10s\n", "dataset", "format", "EMAC acc",
              "naive acc", "delta");
  for (int i = 0; i < 64; ++i) std::printf("-");
  std::printf("\n");
  std::vector<core::TrainedTask> tasks;
  for (const auto& spec : core::paper_tasks()) tasks.push_back(core::prepare_task(spec));

  for (const auto& task : tasks) {
    for (const num::Format fmt :
         {num::Format{num::PositFormat{8, 0}}, num::Format{num::FloatFormat{4, 3}},
          num::Format{num::FixedFormat{8, 7}}}) {
      const double exact = core::evaluate_format(task, fmt).accuracy;
      const double naive = naive_accuracy(task, fmt);
      std::printf("%-10s %-14s %11.2f%% %11.2f%% %+9.2f\n", task.spec.name.c_str(),
                  fmt.name().c_str(), exact * 100, naive * 100, (exact - naive) * 100);
    }
  }

  std::printf("\nABLATION 2: es sensitivity of 8-bit posits (paper: best at es in "
              "{0,2})\n");
  std::printf("%-10s", "dataset");
  for (int es = 0; es <= 3; ++es) std::printf("   es=%d ", es);
  std::printf("\n");
  for (const auto& task : tasks) {
    std::printf("%-10s", task.spec.name.c_str());
    for (int es = 0; es <= 3; ++es) {
      const auto r = core::evaluate_format(task, num::Format{num::PositFormat{8, es}});
      std::printf(" %6.2f%%", r.accuracy * 100);
    }
    std::printf("\n");
  }

  std::printf("\nABLATION 3: weight quantization rounding (RNE vs truncation), "
              "posit<8,0>\n");
  for (const auto& task : tasks) {
    const num::PositFormat pf{8, 0};
    const num::Format fmt = pf;
    // RNE (library default).
    const double rne = core::evaluate_format(task, fmt).accuracy;
    // Truncation: round every weight toward zero by one ULP when inexact.
    nn::QuantizedNetwork q = nn::quantize(task.net, fmt);
    std::size_t li = 0;
    for (auto& layer : q.layers) {
      for (std::size_t i = 0; i < layer.weights.size(); ++i) {
        const double w = static_cast<double>(
            task.net.layers()[li].weights.data()[i]);
        const std::uint32_t bits = layer.weights[i];
        const double back = fmt.to_double(bits);
        if (std::abs(back) > std::abs(w)) {
          layer.weights[i] = num::posit_prior(
              bits & pf.mask(),
              pf);  // step toward zero on the positive side
          if (back < 0) layer.weights[i] = num::posit_next(bits & pf.mask(), pf);
        }
      }
      ++li;
    }
    runtime::Session session(runtime::Model::create(std::move(q)));
    const std::vector<double> flat =
        runtime::pack_rows(task.split.test.x, task.net.input_dim());
    const double trunc = session.accuracy(
        runtime::BatchView(flat, task.net.input_dim()), task.split.test.y);
    std::printf("  %-10s RNE %6.2f%%  truncation %6.2f%%\n", task.spec.name.c_str(),
                rne * 100, trunc * 100);
  }
  std::printf("\nShape check (paper premise): delayed rounding should not hurt and "
              "typically helps, most visibly at low precision.\n");
  return 0;
}
