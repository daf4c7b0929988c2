// Serving with the dp::runtime API: one immutable Model shared by several
// client Sessions, each with its own persistent worker pool, fed contiguous
// zero-copy batches — the inference-server shape the runtime subsystem
// exists for. Also demonstrates the single-sample zero-copy path and the
// bit-identity guarantee across pool sizes.

#include <cstdio>
#include <random>
#include <vector>

#include "core/experiment.hpp"
#include "nn/quantize.hpp"
#include "runtime/session.hpp"

int main() {
  using namespace dp;

  std::printf("== dp::runtime serving session ==\n\n");

  // 1. Train + quantize once, then freeze the result into a shared Model.
  //    The Model packs the kernels' weight planes at construction; everything
  //    in it is immutable and safe to share across threads and Sessions.
  const core::TrainedTask task = core::prepare_task(core::iris_task());
  const auto model =
      runtime::Model::create(nn::quantize(task.net, num::Format{num::PositFormat{8, 0}}));
  std::printf("[1] model: %s, %zu MACs/inference, input dim %zu\n",
              model->format().name().c_str(), model->macs_per_inference(),
              model->input_dim());

  // 2. A batch is one flat row-major buffer; BatchView is a non-owning view
  //    of it. Here we pack the test split once (a real server would point
  //    the view at its request buffer — no copy at all).
  const std::vector<double> flat = runtime::pack_rows(task.split.test.x, model->input_dim());
  const runtime::BatchView batch(flat, model->input_dim());
  std::printf("[2] packed %zu rows x %zu features into one buffer\n", batch.rows(),
              batch.row_width());

  // 3. Each client holds a Session: per-client scratch state plus a worker
  //    pool created once at construction and only woken per submit.
  runtime::Session serial(model);            // pool of 1: runs inline
  runtime::Session pooled(model, {4, nullptr});       // 3 spawned workers + submitter
  std::printf("[3] sessions ready: serial=%zu thread, pooled=%zu threads\n",
              serial.num_threads(), pooled.num_threads());

  // 4. Batched predictions are bit-identical for every pool size.
  const std::vector<int> a = serial.predict(batch);
  const std::vector<int> b = pooled.predict(batch);
  std::printf("[4] serial and pooled predictions identical: %s\n",
              a == b ? "yes" : "NO <-- BUG");

  // 5. Flat results: forward_bits returns one allocation of rows x classes
  //    network-format patterns.
  runtime::BatchResult<std::uint32_t> bits = pooled.forward_bits(batch);
  std::printf("[5] forward_bits: %zu rows x %zu outputs, row 0 = [", bits.rows(),
              bits.row_width);
  for (std::size_t i = 0; i < bits.row_width; ++i) {
    std::printf("0x%02x%s", bits.row(0)[i], i + 1 < bits.row_width ? " " : "]\n");
  }

  // 6. Single-sample path: zero-copy in (any contiguous buffer) and out (a
  //    span into Session-owned state, valid until the next call).
  const auto scores = pooled.forward(batch.row(0));
  std::printf("[6] single-sample scores: [");
  for (std::size_t i = 0; i < scores.size(); ++i) {
    std::printf("%.3f%s", scores[i], i + 1 < scores.size() ? " " : "]\n");
  }

  const double acc = pooled.accuracy(batch, task.split.test.y);
  std::printf("[7] test accuracy through the pooled session: %.2f%%\n", acc * 100);
  return a == b ? 0 : 1;
}
