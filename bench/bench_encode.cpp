// Input-encode cost per value: the shared encode table for n <= 8
// (src/numeric/encode_table.hpp) against the generic Format::from_double,
// on every paper-grid format of 5..8 bits.
//
//   ./build/bench/bench_encode [values]      (default 65536)
//
// Two seeded input sets: "unit" is uniform in [0, 1], like the min-max
// normalized Table II features that runtime::Model encodes; "log" spreads
// over every binade of the format's range and beyond, with random signs.
// Each figure is the median of 7 passes, in ns per value. Also prints the
// table's key width m, its bucket count and its build time, and exits 1 if
// the table and the generic encoder disagree on any input.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "numeric/encode_table.hpp"

namespace {

using Clock = std::chrono::steady_clock;

volatile std::uint32_t sink = 0;

template <typename Encode>
double ns_per_value(const std::vector<double>& xs, Encode encode) {
  std::vector<double> runs;
  for (int pass = 0; pass < 7; ++pass) {
    std::uint32_t acc = 0;
    const Clock::time_point t0 = Clock::now();
    for (const double x : xs) acc += encode(x);
    const Clock::time_point t1 = Clock::now();
    sink = acc;
    runs.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                   static_cast<double>(xs.size()));
  }
  std::nth_element(runs.begin(), runs.begin() + 3, runs.end());
  return runs[3];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dp;
  const long values = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 65536;
  if (values <= 0) {
    std::fprintf(stderr, "usage: bench_encode [values > 0]\n");
    return 2;
  }
  std::printf("%-15s %2s %7s %9s %12s %12s %12s %12s %10s\n", "format", "m", "buckets",
              "build_us", "unit_table", "unit_generic", "log_table", "log_generic",
              "mismatches");
  std::size_t mismatches = 0;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      std::mt19937_64 rng(static_cast<std::uint64_t>(n));
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      std::uniform_real_distribution<double> binade(std::log2(fmt.min_positive()) - 4,
                                                    std::log2(fmt.max_value()) + 4);
      std::vector<double> unit_xs(static_cast<std::size_t>(values));
      std::vector<double> log_xs(unit_xs.size());
      for (double& x : unit_xs) x = unit(rng);
      for (double& x : log_xs) x = ((rng() & 1) != 0 ? -1.0 : 1.0) * std::exp2(binade(rng));

      const Clock::time_point t0 = Clock::now();
      const num::EncodeTable table(fmt);
      const double build_us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      std::size_t bad = 0;
      for (const std::vector<double>* xs : {&unit_xs, &log_xs}) {
        for (const double x : *xs) bad += table.encode(x) != fmt.from_double(x);
      }
      mismatches += bad;
      const auto by_table = [&](double x) { return table.encode(x); };
      const auto generic = [&](double x) { return fmt.from_double(x); };
      std::printf("%-15s %2d %7zu %9.0f %12.2f %12.2f %12.2f %12.2f %10zu\n",
                  fmt.name().c_str(), table.mantissa_bits(), table.bucket_count(), build_us,
                  ns_per_value(unit_xs, by_table), ns_per_value(unit_xs, generic),
                  ns_per_value(log_xs, by_table), ns_per_value(log_xs, generic), bad);
    }
  }
  return mismatches == 0 ? 0 : 1;
}
