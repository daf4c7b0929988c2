// dp::codec bench — compression ratio and single-thread throughput of the
// entropy-coded model container and wire payload blocks, across the paper's
// full format grid (n 5-8). No paper counterpart; this is the engineering
// bench behind docs/compression.md and ROADMAP open item 2 ("the quantized
// tapes are heavily skewed toward small-regime codes").
//
// Three sections, one JSON artifact (BENCH_codec.json by default, archived
// by CI next to the other bench JSONs):
//
//  * formats — per paper-grid format: .dpnetz size vs the "dpnet-quant"
//    text artifact AND vs naive n-bit packing of the same tape, plus
//    encode/decode throughput in MB/s of RAW tape bytes processed (4 bytes
//    per u32 pattern — the honest denominator: it answers "how fast does a
//    model of this size compress", not "how fast do coded bits come out").
//    Every encode is decoded back and checked bit-identical; any mismatch
//    fails the run.
//  * payload — wire-block encode/decode throughput and ratio for a
//    batch-sized frame, same format grid (protocol v4, docs/serving.md).
//  * iris — the paper's Iris 4-10-3 model (Table II): per-layer section
//    byte breakdown, then a full ship cycle — save_quantized_compressed to
//    a .dpnetz file, runtime::Model::load it back, verify forward bits
//    identical to the in-process model.
//
// Reference context (SNIPPETS.md, rotemdan/entropy-coding README, one core
// of a 13th-gen i3): binary arithmetic coding 70-200 Mbit/s (~9-25 MB/s of
// coded bits), binary rANS 180-300 Mbit/s. Those figures meter coded bits
// where this bench meters raw input bytes, so they are context, not a
// like-for-like race; the JSON carries both verbatim.
//
// Usage: bench_codec [reps] [json_path|-]
//          reps       timing repetitions per measurement, best-of (default 5)
//          json_path  output JSON, "-" to disable (default BENCH_codec.json)
//
// Exit status is non-zero if any round trip is not bit-exact, if .dpnetz
// fails to beat the text artifact on any paper-grid model, or if no model
// reaches 2x over the text artifact.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "codec/container.hpp"
#include "codec/payload.hpp"
#include "nn/io.hpp"
#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "runtime/session.hpp"

namespace {

using namespace dp;
using Clock = std::chrono::steady_clock;

// Big enough that one encode pass is milliseconds (13k-element tape), small
// enough that the whole 40-odd-format grid stays a smoke-runnable bench.
nn::Mlp throughput_net() {
  nn::Mlp net({32, 128, 64, 10}, /*seed=*/7);
  std::mt19937 rng(8);
  std::uniform_real_distribution<float> u(-2.0f, 2.0f);
  for (auto& layer : net.layers()) {
    for (auto& w : layer.weights.data()) w = u(rng);
    for (auto& b : layer.bias) b = u(rng);
  }
  return net;
}

// The paper's Iris topology (Table II: 4-10-3) for the artifact sections.
nn::Mlp iris_net() { return nn::Mlp({4, 10, 3}, /*seed=*/7); }

std::size_t tape_elements(const nn::QuantizedNetwork& q) {
  std::size_t n = 0;
  for (const auto& l : q.layers) n += l.weights.size() + l.bias.size();
  return n;
}

/// Best-of-`reps` wall time of `fn`, in seconds.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const std::chrono::duration<double> dt = Clock::now() - t0;
    if (dt.count() < best) best = dt.count();
  }
  return best;
}

struct FormatResult {
  std::string format;
  int n = 0;
  std::size_t elements = 0;
  std::size_t raw_bytes = 0;     // 4 bytes per u32 pattern, the MB/s denominator
  std::size_t packed_bytes = 0;  // naive n-bit packing of the same tape
  std::size_t text_bytes = 0;    // the "dpnet-quant" artifact
  std::size_t dpnetz_bytes = 0;
  double encode_mb_s = 0, decode_mb_s = 0;
  double payload_encode_mb_s = 0, payload_decode_mb_s = 0;
  double payload_ratio = 0;  // raw payload words vs coded block words
  bool exact = false;
  double ratio_text() const {
    return dpnetz_bytes ? static_cast<double>(text_bytes) / static_cast<double>(dpnetz_bytes)
                        : 0.0;
  }
  double ratio_packed() const {
    return dpnetz_bytes
               ? static_cast<double>(packed_bytes) / static_cast<double>(dpnetz_bytes)
               : 0.0;
  }
};

bool identical(const nn::QuantizedNetwork& a, const nn::QuantizedNetwork& b) {
  if (!(a.format == b.format) || a.layers.size() != b.layers.size()) return false;
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    if (a.layers[l].fan_in != b.layers[l].fan_in ||
        a.layers[l].fan_out != b.layers[l].fan_out ||
        a.layers[l].activation != b.layers[l].activation ||
        a.layers[l].weights != b.layers[l].weights || a.layers[l].bias != b.layers[l].bias) {
      return false;
    }
  }
  return true;
}

FormatResult measure_format(const nn::Mlp& net, const num::Format& fmt, int n, int reps) {
  FormatResult res;
  res.format = fmt.name();
  res.n = n;
  const nn::QuantizedNetwork q = nn::quantize(net, fmt);
  res.elements = tape_elements(q);
  res.raw_bytes = res.elements * 4;
  res.packed_bytes = (res.elements * static_cast<std::size_t>(n) + 7) / 8;
  std::ostringstream text;
  nn::save_quantized(text, q);
  res.text_bytes = text.str().size();

  std::vector<std::uint8_t> bytes;
  const double enc_s = best_seconds(reps, [&] { bytes = codec::encode_network(q); });
  res.dpnetz_bytes = bytes.size();
  nn::QuantizedNetwork back{q.format, {}, {}};
  const double dec_s = best_seconds(reps, [&] { back = codec::decode_network(bytes); });
  res.exact = identical(q, back);
  res.encode_mb_s = static_cast<double>(res.raw_bytes) / enc_s / 1e6;
  res.decode_mb_s = static_cast<double>(res.raw_bytes) / dec_s / 1e6;

  // Wire payload: one batch-sized frame of activation-like patterns.
  const std::size_t frame_elems = 1024;
  std::vector<std::uint32_t> patterns(frame_elems);
  std::mt19937 rng(13);
  std::uniform_real_distribution<double> u(-1.5, 1.5);
  for (auto& p : patterns) p = fmt.from_double(u(rng));
  const std::size_t frame_raw = frame_elems * 4;
  std::vector<std::uint32_t> block;
  const double penc_s =
      best_seconds(reps, [&] { block = codec::encode_payload(patterns, fmt.total_bits()); });
  std::vector<std::uint32_t> pback;
  const double pdec_s = best_seconds(
      reps, [&] { pback = codec::decode_payload(block, fmt.total_bits(), frame_elems); });
  if (pback != patterns) res.exact = false;
  res.payload_encode_mb_s = static_cast<double>(frame_raw) / penc_s / 1e6;
  res.payload_decode_mb_s = static_cast<double>(frame_raw) / pdec_s / 1e6;
  res.payload_ratio = static_cast<double>(frame_elems) / static_cast<double>(block.size());
  return res;
}

struct LayerBreakdown {
  std::size_t fan_out = 0, fan_in = 0;
  std::size_t raw_bytes = 0;  // (weights + bias patterns) * 4
};

void write_json(const std::string& path, int reps, const std::vector<FormatResult>& grid,
                const std::vector<LayerBreakdown>& iris_layers, std::size_t iris_text,
                std::size_t iris_dpnetz, bool iris_model_load_ok) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_codec\",\n");
  std::fprintf(f, "  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"throughput_definition\": "
               "\"MB/s of raw tape bytes (4 per u32 pattern), single thread\",\n");
  std::fprintf(f, "  \"reference\": {\"source\": \"rotemdan/entropy-coding README "
               "(SNIPPETS.md)\", \"binary_arithmetic_mbit_s\": \"70-200\", "
               "\"binary_rans_mbit_s\": \"180-300\", \"note\": \"meters coded bits on a "
               "13th-gen i3 core; context, not like-for-like\"},\n");
  std::fprintf(f, "  \"formats\": [\n");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const FormatResult& r = grid[i];
    std::fprintf(
        f,
        "    {\"format\": \"%s\", \"n\": %d, \"elements\": %zu, \"raw_bytes\": %zu, "
        "\"packed_bytes\": %zu, \"text_bytes\": %zu, \"dpnetz_bytes\": %zu, "
        "\"ratio_vs_text\": %.3f, \"ratio_vs_packed\": %.3f, \"encode_MB_s\": %.1f, "
        "\"decode_MB_s\": %.1f, \"payload_encode_MB_s\": %.1f, \"payload_decode_MB_s\": "
        "%.1f, \"payload_ratio\": %.3f, \"exact\": %s}%s\n",
        r.format.c_str(), r.n, r.elements, r.raw_bytes, r.packed_bytes, r.text_bytes,
        r.dpnetz_bytes, r.ratio_text(), r.ratio_packed(), r.encode_mb_s, r.decode_mb_s,
        r.payload_encode_mb_s, r.payload_decode_mb_s, r.payload_ratio,
        r.exact ? "true" : "false", i + 1 == grid.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"iris\": {\n");
  std::fprintf(f, "    \"net\": \"4-10-3\",\n");
  std::fprintf(f, "    \"format\": \"posit<8,1>\",\n");
  std::fprintf(f, "    \"layers\": [\n");
  for (std::size_t l = 0; l < iris_layers.size(); ++l) {
    std::fprintf(f,
                 "      {\"fan_out\": %zu, \"fan_in\": %zu, \"raw_bytes\": %zu}%s\n",
                 iris_layers[l].fan_out, iris_layers[l].fan_in, iris_layers[l].raw_bytes,
                 l + 1 == iris_layers.size() ? "" : ",");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"text_bytes\": %zu,\n", iris_text);
  std::fprintf(f, "    \"dpnetz_bytes\": %zu,\n", iris_dpnetz);
  std::fprintf(f, "    \"model_load_round_trip_ok\": %s\n",
               iris_model_load_ok ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const long reps_arg = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 5;
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_codec.json";
  if (reps_arg <= 0 || reps_arg > 1000) {
    std::fprintf(stderr, "usage: bench_codec [reps 1..1000] [json|-]\n");
    return 2;
  }
  const int reps = static_cast<int>(reps_arg);

  const nn::Mlp net = throughput_net();
  std::printf("bench_codec: net 32-128-64-10, best of %d reps per measurement\n\n", reps);
  std::printf("  %-14s %8s %8s %8s %7s %7s %9s %9s\n", "format", "text B", "dpnetz B",
              "vs text", "vs pack", "exact", "enc MB/s", "dec MB/s");

  std::vector<FormatResult> grid;
  bool all_exact = true;
  bool all_beat_text = true;
  double best_ratio = 0;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      const FormatResult r = measure_format(net, fmt, n, reps);
      std::printf("  %-14s %8zu %8zu %7.2fx %6.2fx %7s %9.1f %9.1f\n", r.format.c_str(),
                  r.text_bytes, r.dpnetz_bytes, r.ratio_text(), r.ratio_packed(),
                  r.exact ? "yes" : "NO", r.encode_mb_s, r.decode_mb_s);
      all_exact = all_exact && r.exact;
      all_beat_text = all_beat_text && r.dpnetz_bytes < r.text_bytes;
      if (r.ratio_text() > best_ratio) best_ratio = r.ratio_text();
      grid.push_back(r);
    }
  }

  // --- Iris artifact: per-layer breakdown + the full ship cycle -------------
  const nn::QuantizedNetwork iris =
      nn::quantize(iris_net(), num::Format{num::PositFormat{8, 1}});
  std::vector<LayerBreakdown> iris_layers;
  for (const auto& l : iris.layers) {
    LayerBreakdown b;
    b.fan_out = l.fan_out;
    b.fan_in = l.fan_in;
    b.raw_bytes = (l.weights.size() + l.bias.size()) * 4;
    iris_layers.push_back(b);
  }
  std::ostringstream iris_text_ss;
  nn::save_quantized(iris_text_ss, iris);
  const std::size_t iris_text = iris_text_ss.str().size();
  const std::size_t iris_dpnetz = codec::encode_network(iris).size();

  const std::string dpnetz_path = "bench_codec_iris.dpnetz";
  nn::save_quantized_compressed(dpnetz_path, iris);
  const std::shared_ptr<const runtime::Model> shipped = runtime::Model::load(dpnetz_path);
  runtime::Session s1(shipped);
  runtime::Session s2(runtime::Model::create(iris));
  bool iris_ok = identical(shipped->network(), iris);
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 32 && iris_ok; ++i) {
    const std::vector<double> x{u(rng), u(rng), u(rng), u(rng)};
    const auto a = s1.forward_bits(x);
    const auto b = s2.forward_bits(x);
    iris_ok = std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  std::remove(dpnetz_path.c_str());
  std::printf("\n  iris 4-10-3 posit<8,1>: text %zu B -> dpnetz %zu B (%.2fx), "
              ".dpnetz -> Model::load round trip: %s\n",
              iris_text, iris_dpnetz,
              static_cast<double>(iris_text) / static_cast<double>(iris_dpnetz),
              iris_ok ? "bit-identical" : "MISMATCH <-- BUG");
  std::printf("  best ratio vs text artifact across the grid: %.2fx\n", best_ratio);

  if (json_path != "-") {
    write_json(json_path, reps, grid, iris_layers, iris_text, iris_dpnetz, iris_ok);
  }

  if (!all_exact || !iris_ok) {
    std::fprintf(stderr, "FAIL: a round trip was not bit-exact\n");
    return 1;
  }
  if (!all_beat_text) {
    std::fprintf(stderr, "FAIL: .dpnetz >= text artifact on some paper-grid model\n");
    return 1;
  }
  if (best_ratio < 2.0) {
    std::fprintf(stderr, "FAIL: no paper-grid model reached 2x over the text artifact\n");
    return 1;
  }
  return 0;
}
