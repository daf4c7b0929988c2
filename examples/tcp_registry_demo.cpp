// End-to-end tour of multi-model serving over real TCP (mirrored step by
// step in docs/deployment.md): train once, quantize the same network into
// two paper formats, ship both as .dpnet files, reload them into a
// serve::ModelRegistry behind a TCP server, query each entry by protocol-v2
// model name (and the default entry over plain v1), then hot-swap one entry
// while a client keeps its connection — no restart, no dropped request.
// Exits 0 only if every served prediction is bit-identical to a direct
// runtime::Session call on the matching model.

#include <cstdio>
#include <filesystem>
#include <span>
#include <vector>

#include "core/experiment.hpp"
#include "nn/io.hpp"
#include "nn/quantize.hpp"
#include "runtime/session.hpp"
#include "serve/server.hpp"

int main() {
  using namespace dp;

  std::printf("== dp::serve TCP multi-model registry demo ==\n\n");

  // 1. Train the paper's Iris network once, quantize it into two of the
  //    Table II formats, and ship each as a dpnet-quant file — the offline
  //    half of the deployment workflow.
  const core::TrainedTask task = core::prepare_task(core::iris_task());
  const auto dir = std::filesystem::temp_directory_path();
  const std::string posit_path = (dir / "iris-posit8.dpnet").string();
  const std::string fixed_path = (dir / "iris-fixed8.dpnet").string();
  nn::save_quantized(posit_path, nn::quantize(task.net, num::Format{num::PositFormat{8, 0}}));
  nn::save_quantized(fixed_path, nn::quantize(task.net, num::Format{num::FixedFormat{8, 7}}));
  std::printf("[1] shipped %s and %s\n", posit_path.c_str(), fixed_path.c_str());

  // 2. The serving half: reload the files into shared Models and load both
  //    into a registry. The first load becomes the default (v1) route.
  const auto posit_model = runtime::Model::load(posit_path);
  const auto fixed_model = runtime::Model::load(fixed_path);
  serve::ModelRegistry registry;
  serve::BatcherOptions bopts;
  bopts.max_batch = 16;
  registry.load("iris-posit8", posit_model, bopts);
  registry.load("iris-fixed8", fixed_model, bopts);
  std::printf("[2] registry: %zu entries, default '%s'\n", registry.names().size(),
              registry.default_name().c_str());

  // 3. One poll-driven server, one real TCP listener (ephemeral port here;
  //    fix a port in production), both entries behind it.
  serve::ServerOptions sopts;
  sopts.tcp_port = 0;
  serve::Server server(registry, sopts);
  std::printf("[3] serving on 127.0.0.1:%u\n", server.tcp_port());

  // 4. Query each entry by name over TCP; the v2 frame's model-name field is
  //    the router. Every reply must match a direct Session bit for bit.
  runtime::Session posit_direct(posit_model);
  runtime::Session fixed_direct(fixed_model);
  serve::Client to_posit = serve::connect_tcp(server.tcp_port(), posit_model, "iris-posit8");
  serve::Client to_fixed = serve::connect_tcp(server.tcp_port(), fixed_model, "iris-fixed8");
  serve::Client v1_client = serve::connect_tcp(server.tcp_port(), posit_model);  // default

  bool all_identical = true;
  std::size_t posit_correct = 0, fixed_correct = 0;
  const std::size_t probe = 20;
  for (std::size_t i = 0; i < probe; ++i) {
    const std::vector<double>& x = task.split.test.x[i];
    const int sp = to_posit.predict(x);
    const int sf = to_fixed.predict(x);
    if (sp != posit_direct.predict(std::span<const double>(x))) all_identical = false;
    if (sf != fixed_direct.predict(std::span<const double>(x))) all_identical = false;
    if (v1_client.predict(x) != sp) all_identical = false;  // v1 = default = posit entry
    if (sp == task.split.test.y[i]) ++posit_correct;
    if (sf == task.split.test.y[i]) ++fixed_correct;
  }
  std::printf("[4] %zu test samples: posit8 %zu correct, fixed8 %zu correct, "
              "served == direct Session: %s\n",
              probe, posit_correct, fixed_correct, all_identical ? "yes" : "NO <-- BUG");

  // 5. An unknown name is a response, not a dropped connection.
  serve::Client lost = serve::connect_tcp(server.tcp_port(), posit_model, "no-such-model");
  const serve::Reply nf = lost.forward_bits(task.split.test.x[0]);
  std::printf("[5] unknown model name -> status '%s'\n", serve::to_string(nf.status));

  // 6. Hot reload: re-ship the posit file (same weights here; retrained ones
  //    in real life) and swap it in while the connections stay up. The swap
  //    drains in-flight requests on the old model before releasing it.
  registry.load("iris-posit8", runtime::Model::load(posit_path), bopts);
  const int after_swap = to_posit.predict(task.split.test.x[0]);
  if (after_swap != posit_direct.predict(std::span<const double>(task.split.test.x[0]))) {
    all_identical = false;
  }
  std::printf("[6] hot swap of 'iris-posit8' done (swaps so far: %llu); "
              "same client, same connection, still bit-identical: %s\n",
              static_cast<unsigned long long>(registry.counters().swaps),
              all_identical ? "yes" : "NO <-- BUG");

  // 7. Observability: per-entry batcher stats plus the server's wire view.
  const serve::ServerStats stats = server.stats();
  const auto posit_stats = registry.stats("iris-posit8");
  const auto fixed_stats = registry.stats("iris-fixed8");
  std::printf("[7] wire: %llu frames in / %llu out over %llu connections; "
              "posit entry served %llu (fresh counters since the swap), "
              "fixed entry served %llu\n",
              static_cast<unsigned long long>(stats.frames_in),
              static_cast<unsigned long long>(stats.frames_out),
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(posit_stats ? posit_stats->completed : 0),
              static_cast<unsigned long long>(fixed_stats ? fixed_stats->completed : 0));

  const bool not_found_ok = nf.status == serve::Status::kNotFound;
  return all_identical && not_found_ok ? 0 : 1;
}
