// Request-level serving bench for the dp::serve stack — the scenario none of
// the batch benches model: independent single-sample requests arriving in
// bursts from concurrent clients, coalesced by the DynamicBatcher, answered
// per request. No paper counterpart; this is the engineering bench for the
// serving front-end (docs/serving.md).
//
// Two sections, both emitted into one JSON artifact (BENCH_serve.json by
// default) so CI can archive it per commit next to the other bench JSONs:
//
//  * burst — the acceptance comparison: client threads fire single-sample
//    requests open-loop at the batcher (callback completion into
//    preallocated storage, so the measured delta is the dispatch path, not
//    future/promise heap traffic). Two configurations at the SAME total pool
//    size: max_batch=1 (every request is its own micro-batch: per-request
//    carve/dispatch cost, and a 1-row batch can never use the Session pool)
//    vs micro-batching on. Repeats are interleaved and each config keeps its
//    best, so a transient host load spike cannot skew the ratio. Micro-
//    batched requests/s must be strictly higher — that delta IS the reason
//    serve:: exists on top of runtime::.
//  * wire — blocking round-trip latency through the full stack (client
//    framing + CRC, socketpair hop, batcher, Session, response demux):
//    p50/p99/mean microseconds per request at batch-of-1 arrival.
//
// Usage: bench_serve [--burst] [requests_per_client] [json_path|-]
//          --burst              scale the burst section up (CI acceptance run)
//          requests_per_client  per client thread (default 256; --burst 32768)
//          json_path            output JSON, "-" to disable (default BENCH_serve.json)
//
// Exit status is non-zero if served bits mismatch a direct Session call or
// if the micro-batched configuration fails to beat batch-size-1.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/percentile.hpp"
#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/encode_table.hpp"
#include "numeric/format.hpp"
#include "runtime/session.hpp"
#include "serve/server.hpp"

namespace {

using namespace dp;
using Clock = std::chrono::steady_clock;

// The paper's own Iris topology (Table II: 4-10-3, 70 MACs/inference):
// per-request arithmetic is a fraction of a microsecond, which is exactly
// the regime where per-request dispatch overhead — not MACs — limits a
// request-at-a-time server, i.e. the paper's cheap-inference-at-the-edge
// deployment story. On a multi-core host the micro-batched config
// additionally spreads each flush over the Session pool, which 1-row
// batches never can.
const char* kNetName = "4-10-3";
nn::Mlp bench_net() { return nn::Mlp({4, 10, 3}, /*seed=*/7); }

std::vector<double> random_rows(std::size_t rows, std::size_t dim, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

struct BurstResult {
  std::string label;
  std::size_t max_batch = 0;
  double requests_per_s = 0;
  double mean_occupancy = 0;
  double wait_p50_us = 0;
  double wait_p99_us = 0;
  std::uint64_t rejected = 0;
  bool bit_identical = true;
};

/// One burst run over a fresh batcher: `clients` threads x `per_client`
/// single-sample requests fired open-loop; wall clock stops when the last
/// completion callback lands.
BurstResult run_burst_once(const std::shared_ptr<const runtime::Model>& model,
                           const std::string& label, std::size_t max_batch,
                           std::size_t clients, std::size_t per_client,
                           std::size_t session_threads,
                           const std::vector<std::vector<std::uint32_t>>& reference,
                           const std::vector<double>& xs) {
  serve::BatcherOptions opts;
  opts.max_batch = max_batch;
  opts.queue_capacity = clients * per_client;  // admission never the bottleneck here
  opts.dispatchers = 1;
  opts.session_threads = session_threads;
  serve::DynamicBatcher batcher(model, opts);

  // Callback-flavoured submission with preallocated result storage: the
  // per-request completion cost is one row copy + one atomic increment in
  // BOTH configs, so the measured delta is the dispatch path itself, not
  // future/promise heap traffic.
  const std::size_t dim = model->input_dim();
  const std::size_t out_dim = model->output_dim();
  const std::size_t total = clients * per_client;
  struct Shared {
    std::vector<std::uint32_t> out;
    std::atomic<std::size_t> done{0};
    std::atomic<bool> all_ok{true};
    std::mutex m;
    std::condition_variable cv;
  } shared;
  shared.out.assign(total * out_dim, 0);
  // The batcher admits input-format patterns: encode the rows up front, as
  // a wire client does, with the one encode rule.
  const num::Encoder encode(model->input_format());
  std::vector<std::uint32_t> patterns;
  patterns.reserve(xs.size());
  for (const double v : xs) patterns.push_back(encode(v));

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t r = 0; r < per_client; ++r) {
        const std::size_t i = c * per_client + r;
        const std::size_t row = i % (xs.size() / dim);
        batcher.submit(
            std::span(patterns).subspan(row * dim, dim),
            [&shared, i, out_dim, total](serve::Status s,
                                         std::span<const std::uint32_t> bits) {
              if (s != serve::Status::kOk) {
                shared.all_ok.store(false);
              } else {
                std::copy(bits.begin(), bits.end(), shared.out.begin() + i * out_dim);
              }
              if (shared.done.fetch_add(1) + 1 == total) {
                std::lock_guard<std::mutex> lk(shared.m);
                shared.cv.notify_one();
              }
            });
      }
    });
  }
  for (std::thread& t : threads) t.join();
  {
    std::unique_lock<std::mutex> lk(shared.m);
    shared.cv.wait(lk, [&] { return shared.done.load() == total; });
  }
  const std::chrono::duration<double> wall = Clock::now() - t0;

  // Verify off the clock: every served row must match the direct Session.
  bool identical = shared.all_ok.load();
  for (std::size_t i = 0; i < total && identical; ++i) {
    const std::size_t row = i % (xs.size() / dim);
    const std::span<const std::uint32_t> got(shared.out.data() + i * out_dim, out_dim);
    identical = std::equal(got.begin(), got.end(), reference[row].begin());
  }

  const serve::BatcherStats stats = batcher.stats();
  BurstResult res;
  res.label = label;
  res.max_batch = max_batch;
  res.requests_per_s = static_cast<double>(clients * per_client) / wall.count();
  res.mean_occupancy = stats.mean_occupancy;
  res.wait_p50_us = stats.wait_p50_us;
  res.wait_p99_us = stats.wait_p99_us;
  res.rejected = stats.rejected;
  res.bit_identical = identical;
  return res;
}

struct WireResult {
  double p50_us = 0, p99_us = 0, mean_us = 0;
  std::size_t requests = 0;
  bool bit_identical = true;
};

WireResult run_wire(const std::shared_ptr<const runtime::Model>& model, std::size_t requests,
                    const std::vector<std::vector<std::uint32_t>>& reference,
                    const std::vector<double>& xs) {
  serve::ServerOptions opts;
  opts.batcher.max_batch = 16;
  serve::Server server(model, opts);
  serve::Client client = server.connect();

  const std::size_t dim = model->input_dim();
  const std::size_t rows = xs.size() / dim;
  WireResult res;
  res.requests = requests;
  std::vector<double> us;
  us.reserve(requests);
  double total = 0;
  client.forward_bits(std::span(xs).first(dim));  // warm-up
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t row = i % rows;
    const auto t0 = Clock::now();
    const serve::Reply reply = client.forward_bits(std::span(xs).subspan(row * dim, dim));
    const std::chrono::duration<double, std::micro> dt = Clock::now() - t0;
    us.push_back(dt.count());
    total += dt.count();
    if (reply.status != serve::Status::kOk || reply.bits != reference[row]) {
      res.bit_identical = false;
    }
  }
  std::sort(us.begin(), us.end());
  res.p50_us = core::percentile(us, 50);
  res.p99_us = core::percentile(us, 99);
  res.mean_us = total / static_cast<double>(requests);
  return res;
}

void write_json(const std::string& path, std::size_t clients, std::size_t per_client,
                std::size_t session_threads, const std::vector<BurstResult>& burst,
                double speedup, const WireResult& wire) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_serve\",\n");
  std::fprintf(f, "  \"net\": \"%s\",\n", kNetName);
  std::fprintf(f, "  \"format\": \"posit<8,0>\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"burst\": {\n");
  std::fprintf(f, "    \"clients\": %zu,\n", clients);
  std::fprintf(f, "    \"requests_per_client\": %zu,\n", per_client);
  std::fprintf(f, "    \"session_threads\": %zu,\n", session_threads);
  std::fprintf(f, "    \"results\": [\n");
  for (std::size_t i = 0; i < burst.size(); ++i) {
    const BurstResult& b = burst[i];
    std::fprintf(f,
                 "      {\"label\": \"%s\", \"max_batch\": %zu, \"requests_per_s\": %.1f, "
                 "\"mean_occupancy\": %.2f, \"wait_p50_us\": %.2f, \"wait_p99_us\": %.2f, "
                 "\"rejected\": %llu, \"bit_identical\": %s}%s\n",
                 b.label.c_str(), b.max_batch, b.requests_per_s, b.mean_occupancy,
                 b.wait_p50_us, b.wait_p99_us,
                 static_cast<unsigned long long>(b.rejected),
                 b.bit_identical ? "true" : "false", i + 1 == burst.size() ? "" : ",");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"microbatch_speedup\": %.3f,\n", speedup);
  std::fprintf(f, "    \"microbatch_faster\": %s\n", speedup > 1.0 ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"wire\": {\n");
  std::fprintf(f, "    \"requests\": %zu,\n", wire.requests);
  std::fprintf(f, "    \"round_trip_p50_us\": %.2f,\n", wire.p50_us);
  std::fprintf(f, "    \"round_trip_p99_us\": %.2f,\n", wire.p99_us);
  std::fprintf(f, "    \"round_trip_mean_us\": %.2f,\n", wire.mean_us);
  std::fprintf(f, "    \"bit_identical\": %s\n", wire.bit_identical ? "true" : "false");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool burst_mode = false;
  int arg = 1;
  if (argc > arg && std::strcmp(argv[arg], "--burst") == 0) {
    burst_mode = true;
    ++arg;
  }
  const long long per_client_arg =
      argc > arg ? std::strtoll(argv[arg], nullptr, 10) : (burst_mode ? 32768 : 256);
  const std::string json_path = argc > arg + 1 ? argv[arg + 1] : "BENCH_serve.json";
  if (per_client_arg <= 0 || per_client_arg > 10'000'000) {
    std::fprintf(stderr, "usage: bench_serve [--burst] [requests_per_client 1..10000000] [json|-]\n");
    return 2;
  }
  const std::size_t per_client = static_cast<std::size_t>(per_client_arg);
  const std::size_t clients = 2;
  const int repeats = 5;
  const std::size_t session_threads =
      std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));

  const nn::Mlp net = bench_net();
  const auto model =
      runtime::Model::create(nn::quantize(net, num::Format{num::PositFormat{8, 0}}));
  const std::size_t dim = model->input_dim();
  const std::size_t distinct_rows = 64;
  const std::vector<double> xs = random_rows(distinct_rows, dim, 2019);

  // Reference bits from a direct Session: everything the stack serves must
  // match these exactly.
  std::vector<std::vector<std::uint32_t>> reference;
  {
    runtime::Session session(model);
    for (std::size_t r = 0; r < distinct_rows; ++r) {
      const auto bits = session.forward_bits(std::span(xs).subspan(r * dim, dim));
      reference.emplace_back(bits.begin(), bits.end());
    }
  }

  std::printf("bench_serve: net %s (%zu MACs/inference), %zu clients x %zu requests, "
              "session_threads=%zu\n\n",
              kNetName, model->macs_per_inference(), clients, per_client, session_threads);

  // --- burst: batch-size-1 submission vs dynamic micro-batching -----------
  // Best-of-N per config with the repeats INTERLEAVED (b1, mb, b1, mb, ...):
  // a transient load spike on the host then degrades both configs' samples
  // instead of silently skewing the ratio toward whichever ran second.
  std::vector<BurstResult> burst(2);
  for (int r = 0; r < repeats; ++r) {
    const BurstResult b1 = run_burst_once(model, "batch1", 1, clients, per_client,
                                          session_threads, reference, xs);
    const BurstResult mb = run_burst_once(model, "microbatch", 32, clients, per_client,
                                          session_threads, reference, xs);
    if (!b1.bit_identical || !mb.bit_identical) {  // fail loud, never hide it in best-of
      burst[0] = b1;
      burst[1] = mb;
      break;
    }
    if (b1.requests_per_s > burst[0].requests_per_s) burst[0] = b1;
    if (mb.requests_per_s > burst[1].requests_per_s) burst[1] = mb;
  }
  const double speedup = burst[1].requests_per_s / burst[0].requests_per_s;

  std::printf("  %-10s  %9s  %13s  %9s  %10s  %10s  %s\n", "config", "max_batch",
              "requests/s", "occupancy", "p50 us", "p99 us", "bit-identical");
  for (const BurstResult& b : burst) {
    std::printf("  %-10s  %9zu  %13.1f  %9.2f  %10.2f  %10.2f  %s\n", b.label.c_str(),
                b.max_batch, b.requests_per_s, b.mean_occupancy, b.wait_p50_us,
                b.wait_p99_us, b.bit_identical ? "yes" : "NO <-- BUG");
  }
  std::printf("  micro-batching speedup at the same pool size: %.2fx %s\n\n", speedup,
              speedup > 1.0 ? "" : "<-- REGRESSION: batching should win");

  // --- wire: full-stack blocking round trip --------------------------------
  const WireResult wire = run_wire(model, std::min<std::size_t>(per_client, 2000),
                                   reference, xs);
  std::printf("  wire round trip (batch-of-1): p50 %.2f us, p99 %.2f us, mean %.2f us, "
              "bit-identical: %s\n",
              wire.p50_us, wire.p99_us, wire.mean_us,
              wire.bit_identical ? "yes" : "NO <-- BUG");

  if (json_path != "-") {
    write_json(json_path, clients, per_client, session_threads, burst, speedup, wire);
  }

  const bool all_identical =
      burst[0].bit_identical && burst[1].bit_identical && wire.bit_identical;
  if (!all_identical) return 1;
  return speedup > 1.0 ? 0 : 1;
}
