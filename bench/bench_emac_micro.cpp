// Google-benchmark microbenchmarks of the software EMAC models: per-MAC
// step() throughput of the functional (fast) units that serve as the
// inference oracle, of the bit-accurate RTL model, and of the scalar posit
// codec. The blocked kernels are measured end to end by
// bench_batch_throughput.
//
// Unless the caller passes --benchmark_out themselves, results are also
// written as JSON to BENCH_emac_micro.json in the working directory so CI
// can archive them per commit (same contract as bench_batch_throughput).

#include <benchmark/benchmark.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "emac/emac.hpp"
#include "emac/fixed_emac.hpp"
#include "emac/float_emac.hpp"
#include "emac/posit_emac.hpp"
#include "numeric/posit.hpp"

namespace {

using namespace dp;

std::vector<std::uint32_t> random_patterns(int n, std::size_t count, std::uint32_t avoid) {
  std::mt19937 rng(99);
  std::vector<std::uint32_t> out;
  const std::uint32_t mask = (n >= 32) ? ~0u : ((1u << n) - 1);
  while (out.size() < count) {
    const std::uint32_t v = rng() & mask;
    if (v != avoid) out.push_back(v);
  }
  return out;
}

template <typename MakeEmac>
void run_emac_bench(benchmark::State& state, const num::Format& fmt, MakeEmac make) {
  constexpr std::size_t kK = 64;
  const auto w = random_patterns(fmt.total_bits(), kK, num::PositFormat{8, 0}.nar_pattern());
  const auto a = random_patterns(fmt.total_bits(), kK, num::PositFormat{8, 0}.nar_pattern());
  auto emac = make(fmt, kK);
  for (auto _ : state) {
    emac->reset(0);
    for (std::size_t i = 0; i < kK; ++i) emac->step(w[i], a[i]);
    benchmark::DoNotOptimize(emac->result());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kK));
}

void BM_PositEmacFast(benchmark::State& state) {
  run_emac_bench(state, num::Format{num::PositFormat{8, static_cast<int>(state.range(0))}},
                 [](const num::Format& f, std::size_t k) { return emac::make_emac(f, k); });
}
BENCHMARK(BM_PositEmacFast)->Arg(0)->Arg(1)->Arg(2);

void BM_PositEmacRtl(benchmark::State& state) {
  run_emac_bench(state, num::Format{num::PositFormat{8, static_cast<int>(state.range(0))}},
                 [](const num::Format& f, std::size_t k) {
                   return emac::make_emac(f, k, /*bit_accurate=*/true);
                 });
}
BENCHMARK(BM_PositEmacRtl)->Arg(0)->Arg(2);

void BM_FloatEmac(benchmark::State& state) {
  run_emac_bench(state, num::Format{num::FloatFormat{4, 3}},
                 [](const num::Format& f, std::size_t k) { return emac::make_emac(f, k); });
}
BENCHMARK(BM_FloatEmac);

void BM_FixedEmac(benchmark::State& state) {
  run_emac_bench(state, num::Format{num::FixedFormat{8, 4}},
                 [](const num::Format& f, std::size_t k) { return emac::make_emac(f, k); });
}
BENCHMARK(BM_FixedEmac);

void BM_PositScalarMul(benchmark::State& state) {
  const num::PositFormat fmt{8, 1};
  const auto xs = random_patterns(8, 256, fmt.nar_pattern());
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint32_t r =
        num::posit_mul(xs[i % 256], xs[(i + 1) % 256], fmt);
    benchmark::DoNotOptimize(r);
    ++i;
  }
}
BENCHMARK(BM_PositScalarMul);

void BM_PositScalarAdd(benchmark::State& state) {
  const num::PositFormat fmt{8, 1};
  const auto xs = random_patterns(8, 256, fmt.nar_pattern());
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint32_t r =
        num::posit_add(xs[i % 256], xs[(i + 1) % 256], fmt);
    benchmark::DoNotOptimize(r);
    ++i;
  }
}
BENCHMARK(BM_PositScalarAdd);

void BM_PositFromDouble(benchmark::State& state) {
  const num::PositFormat fmt{16, 1};
  double v = 0.37;
  for (auto _ : state) {
    benchmark::DoNotOptimize(num::posit_from_double(v, fmt));
    v = v * 1.0000001;
  }
}
BENCHMARK(BM_PositFromDouble);

}  // namespace

int main(int argc, char** argv) {
  // Default to a JSON dump alongside the console reporter unless the caller
  // configured their own output.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_emac_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  bool has_out_format = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
    if (std::strncmp(argv[i], "--benchmark_out_format", 22) == 0) has_out_format = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    if (!has_out_format) args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
