// End-to-end tour of the dp::serve stack (mirrored step by step in
// docs/serving.md): train + quantize a model, stand up an in-process Server,
// talk to it over the framed wire protocol from two clients — blocking round
// trips, pipelined out-of-order receives, a lone request, backpressure — and
// read the stats. Exits 0 only if every served prediction is
// bit-identical to a direct runtime::Session call.

#include <chrono>
#include <cstdio>
#include <future>
#include <latch>
#include <vector>

#include "core/experiment.hpp"
#include "nn/quantize.hpp"
#include "runtime/session.hpp"
#include "serve/server.hpp"

int main() {
  using namespace dp;

  std::printf("== dp::serve demo ==\n\n");

  // 1. Train once, quantize to the paper's 8-bit posit, freeze into the
  //    shared immutable Model every layer above reads.
  const core::TrainedTask task = core::prepare_task(core::iris_task());
  const auto model =
      runtime::Model::create(nn::quantize(task.net, num::Format{num::PositFormat{8, 0}}));
  std::printf("[1] model: %s, input dim %zu, %zu MACs/inference\n",
              model->format().name().c_str(), model->input_dim(),
              model->macs_per_inference());

  // 2. A Server owns one DynamicBatcher. It is work-conserving: an idle
  //    dispatcher serves whatever is pending at once, and requests that
  //    arrive from any connection while it is busy coalesce into one
  //    contiguous micro-batch of up to max_batch rows.
  serve::ServerOptions opts;
  opts.batcher.max_batch = 16;
  opts.batcher.session_threads = 2;
  serve::Server server(model, opts);
  std::printf("[2] server up: max_batch=%zu, queue_capacity=%zu\n", opts.batcher.max_batch,
              opts.batcher.queue_capacity);

  // 3. Blocking round trips from client A. The wire carries the sample as
  //    raw posit bit patterns; replies must match a direct Session exactly.
  serve::Client a = server.connect();
  runtime::Session direct(model);
  bool all_identical = true;
  std::size_t correct = 0;
  const std::size_t probe = 10;
  for (std::size_t i = 0; i < probe; ++i) {
    const std::vector<double>& x = task.split.test.x[i];
    const int served = a.predict(x);
    if (served != direct.predict(std::span<const double>(x))) all_identical = false;
    if (served == task.split.test.y[i]) ++correct;
  }
  std::printf("[3] client A: %zu/%zu test samples correct, served == direct Session: %s\n",
              correct, probe, all_identical ? "yes" : "NO <-- BUG");

  // 4. Client B pipelines: fire 8 requests, then collect the replies in
  //    reverse order — the echoed request id is what pairs them back up,
  //    so out-of-order micro-batch completion can never mix results.
  serve::Client b = server.connect();
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < 8; ++i) ids.push_back(b.send(task.split.test.x[i]));
  for (std::size_t i = ids.size(); i-- > 0;) {
    const serve::Reply reply = b.receive(ids[i]);
    const auto bits = direct.forward_bits(std::span<const double>(task.split.test.x[i]));
    if (!reply.ok() ||
        reply.bits != std::vector<std::uint32_t>(bits.begin(), bits.end())) {
      all_identical = false;
    }
  }
  std::printf("[4] client B: 8 pipelined requests, received in reverse, all identical: %s\n",
              all_identical ? "yes" : "NO <-- BUG");

  // 5. A lone request never waits for company: the idle dispatcher serves
  //    it at once as a micro-batch of one.
  const auto t0 = std::chrono::steady_clock::now();
  (void)a.predict(task.split.test.x[0]);
  const std::chrono::duration<double, std::micro> lone = std::chrono::steady_clock::now() - t0;
  std::printf("[5] lone request round trip: %.0f us\n", lone.count());

  const serve::ServerStats stats = server.stats();
  std::printf("[6] stats: %llu requests in %llu batches (mean occupancy %.2f), "
              "queue wait p50 %.1f us / p99 %.1f us\n",
              static_cast<unsigned long long>(stats.batcher.completed),
              static_cast<unsigned long long>(stats.batcher.batches),
              stats.batcher.mean_occupancy, stats.batcher.wait_p50_us,
              stats.batcher.wait_p99_us);

  // 7. Backpressure: a server sized for 2 pending rows rejects the overflow
  //    at admission with kQueueFull instead of queueing without bound. To
  //    fill its queue on purpose, first occupy its only dispatcher with a
  //    request submitted through the registry whose completion callback
  //    waits on a gate (callbacks run on the dispatcher thread).
  std::latch gate(1);
  std::promise<void> holding;
  serve::ServerOptions tiny;
  tiny.batcher.max_batch = 64;
  tiny.batcher.queue_capacity = 2;
  serve::Server small(model, tiny);
  small.registry().acquire("")->lane(0).submit(
      task.split.test.x[0], [&](serve::Status, std::span<const std::uint32_t>) {
        holding.set_value();
        gate.wait();
      });
  holding.get_future().wait();
  serve::Client c = small.connect();
  std::vector<std::uint64_t> flood;
  for (std::size_t i = 0; i < 6; ++i) flood.push_back(c.send(task.split.test.x[i]));
  std::size_t rejected = 0;
  for (std::size_t i = 2; i < flood.size(); ++i) {
    if (c.receive(flood[i]).status == serve::Status::kQueueFull) ++rejected;
  }
  gate.count_down();  // free the dispatcher: the two accepted requests are served
  small.stop();
  const bool drained = c.receive(flood[0]).ok() && c.receive(flood[1]).ok();
  std::printf("[7] backpressure: 6 sent into capacity 2 -> %zu rejected with queue-full, "
              "accepted served: %s\n",
              rejected, drained ? "yes" : "NO <-- BUG");

  return all_identical && rejected == 4 && drained ? 0 : 1;
}
