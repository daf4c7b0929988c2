#pragma once
// runtime::Session — the per-client, mutable half of the inference API.
//
// A Session binds one shared immutable Model to everything a single caller
// needs to run inference at serving rates: one Scratch per worker-pool slot
// (so no path ever locks or allocates per sample) and a persistent WorkerPool
// whose threads are created once, at Session construction, and only woken per
// batch submit.
//
// Every entry point is forward_bits_into plus a decode or an argmax; the
// single-sample calls run it on a one-row view.
//
// Thread-safety contract:
//  * Model is immutable — share one freely across Sessions and threads.
//  * A Session is single-client state: calls on one Session must not overlap.
//    Concurrent callers each hold their own Session (Sessions are cheap; the
//    packed weight planes live in the Model).
//  * The spans returned by the single-sample calls view Session-owned
//    buffers and stay valid until the next call on the same Session.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "runtime/batch.hpp"
#include "runtime/model.hpp"
#include "runtime/worker_pool.hpp"

namespace dp::runtime {

struct SessionOptions {
  /// Worker-pool concurrency for the batched entry points, counting the
  /// submitting thread (which always participates). 0 picks
  /// std::thread::hardware_concurrency(); 1 spawns no threads and runs
  /// everything on the submitting thread. Single-sample calls never wake
  /// the pool. Ignored when `pool` is set.
  std::size_t num_threads = 1;
  /// Share an externally owned pool instead of spawning a private one.
  /// WorkerPool is multi-client, so any number of Sessions (e.g. every
  /// dispatcher of every per-shard serve::DynamicBatcher) may point at one
  /// pool sized to the machine — the Session allocates one Scratch per pool
  /// slot either way.
  std::shared_ptr<WorkerPool> pool;
};

class Session {
 public:
  explicit Session(std::shared_ptr<const Model> model, SessionOptions opts = {});

  const Model& model() const { return *model_; }
  std::shared_ptr<const Model> model_ptr() const { return model_; }

  /// Actual pool concurrency (spawned workers + the submitting thread).
  std::size_t num_threads() const { return pool_->slots(); }

  /// The model's samples per pass (Model::preferred_tile()). Serving
  /// front-ends (serve::DynamicBatcher) align size-triggered flushes to a
  /// multiple of this so every full tile of a micro-batch rides one
  /// weight-plane pass.
  std::size_t preferred_batch_multiple() const { return model_->preferred_tile(); }

  // --- Single-sample entry points (zero-copy in and out) -------------------
  // `x` is any contiguous double buffer of input_dim() values (else
  // std::invalid_argument). The returned spans view Session-owned state,
  // valid until the next call on this Session; copy them out to keep them.

  /// Readout activations as output-format bit patterns.
  std::span<const std::uint32_t> forward_bits(std::span<const double> x);

  /// Readout activations decoded to doubles.
  std::span<const double> forward(std::span<const double> x);

  /// argmax class prediction.
  int predict(std::span<const double> x);

  // --- Batched entry points (contiguous row-major in, flat row-major out) --
  // The batch is cut into preferred_tile()-row tiles spread over the
  // persistent pool; results are bit-identical for every pool size (rows are
  // independent). Throws std::invalid_argument if xs.row_width() !=
  // input_dim() (non-empty batches).

  BatchResult<std::uint32_t> forward_bits(BatchView xs);
  BatchResult<double> forward(BatchView xs);
  std::vector<int> predict(BatchView xs);

  /// The entry point every other call reduces to, and the batch-submission
  /// hook for serving front-ends (serve::DynamicBatcher): writes row i's
  /// readout into out[i*output_dim() .. (i+1)*output_dim()) of a
  /// caller-owned buffer — e.g. response storage. Throws
  /// std::invalid_argument unless out.size() == xs.rows() * output_dim().
  void forward_bits_into(BatchView xs, std::span<std::uint32_t> out);

  /// Fraction of rows whose prediction equals the label; labels.size() must
  /// equal xs.rows(). Returns 0 for an empty batch.
  double accuracy(BatchView xs, std::span<const int> labels);

 private:
  /// forward_bits_into on the one-row view of `x` into bits_.
  void forward_one(std::span<const double> x);

  std::shared_ptr<const Model> model_;
  std::shared_ptr<WorkerPool> pool_;  // private by default; shared via options
  std::vector<Scratch> scratch_;      // one per pool slot
  std::vector<std::uint32_t> bits_;   // single-sample readout
  std::vector<double> scores_;        // single-sample decoded readout
};

}  // namespace dp::runtime
