#pragma once
// serve::DynamicBatcher — the micro-batching heart of the serving stack.
//
// Independent single-sample requests are admitted into one bounded queue
// whose rows — input-format bit patterns, as the wire carries them — live
// in a single contiguous row-major staging buffer (the coalescing is the
// append: a flush is a runtime::PatternView pointed straight at the carved
// rows, no per-row gather). Dispatcher threads — each owning a
// private runtime::Session over the shared Model — carve micro-batches off
// the queue front. The batcher is WORK-CONSERVING (Clipper's adaptive
// batching, Crankshaw et al., NSDI 2017): a dispatcher that wakes with rows
// pending carves min(pending, max_batch) of them at once and never waits for
// company. Micro-batches form only while every dispatcher is busy — rows
// arriving during an inference queue up and leave together on the next
// carve — so batching costs an idle server no latency and amortizes
// dispatch exactly when load makes it pay. Admission applies backpressure:
// when queue_capacity rows are already pending, submit completes
// immediately with Status::kQueueFull instead of growing the queue without
// bound (reject-at-admission keeps the queue wait of *accepted* requests
// bounded by the service time of the batches ahead of them).
//
// Requests may carry a DEADLINE (the protocol-v4 budget, converted to a
// steady-clock instant at decode): a request whose deadline passes while it
// is still queued is shed at carve time with Status::kDeadlineExceeded —
// its rows never reach a Session, so an already-too-late request cannot
// burn inference work that an in-budget request is waiting for. A request
// whose deadline passes mid-inference is NOT cancelled (the batch is
// already on a core; aborting it would cost more than finishing), so the
// shed guarantee is strictly about queue time. Sheds are counted in
// BatcherStats::deadline_exceeded.
//
// With dispatchers >= 2, consecutive micro-batches overlap in flight and may
// complete out of order; completion is per-request (callback or future), so
// ordering never leaks into correctness — enforced by
// tests/serve/batcher_test.cpp.
//
// Threading contract: submit() is safe from any number of threads
// concurrently (the admission lock is the only shared state on the request
// path). Callbacks run on a dispatcher thread (or inline on the submitting
// thread for immediate rejections) and must not block for long — a blocked
// callback stalls that dispatcher's share of the flush bandwidth.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "runtime/model.hpp"
#include "runtime/session.hpp"
#include "serve/types.hpp"

namespace dp::serve {

struct BatcherOptions {
  /// Most rows one carve takes off the queue front.
  std::size_t max_batch = 32;
  /// Ignored: the batcher is work-conserving and never waits for company.
  /// Kept only because perfbench/serve.cpp still assigns it; the field goes
  /// when that line does.
  std::chrono::microseconds max_wait{1000};
  /// Admission bound on pending (not yet carved) rows; beyond it, submit
  /// rejects with Status::kQueueFull.
  std::size_t queue_capacity = 1024;
  /// Dispatcher threads = micro-batches concurrently in flight. Each owns a
  /// private Session (sharing the one Model), so 2+ lets a small batch
  /// overtake a large one.
  std::size_t dispatchers = 1;
  /// Worker-pool size of each dispatcher's Session (runtime::SessionOptions
  /// semantics: counts the dispatcher itself; 0 = hardware concurrency).
  /// Ignored when `shared_pool` is set.
  std::size_t session_threads = 1;
  /// Share one machine-sized runtime::WorkerPool across every dispatcher
  /// Session instead of spawning session_threads-sized private pools. The
  /// sharded Server uses this so N shards x M dispatchers do not oversubscribe
  /// the box with N*M pools.
  std::shared_ptr<runtime::WorkerPool> shared_pool;
};

/// Counters + gauges snapshot; see DynamicBatcher::stats(). Wait percentiles
/// are computed over a sliding window of the most recent kWaitWindow
/// completed requests (admission -> carve time, microseconds).
struct BatcherStats {
  std::uint64_t accepted = 0;   ///< admitted into the queue
  std::uint64_t rejected = 0;   ///< refused at admission (queue full / shutdown)
  std::uint64_t completed = 0;  ///< rows flushed through a Session
  std::uint64_t deadline_exceeded = 0;  ///< shed: deadline expired while queued
  std::uint64_t batches = 0;    ///< micro-batches dispatched
  std::size_t queue_depth = 0;  ///< rows pending right now (gauge)
  std::size_t in_flight = 0;    ///< micro-batches being served right now (gauge)
  double mean_occupancy = 0;    ///< completed / batches
  double wait_p50_us = 0;       ///< median queue wait, sliding window
  double wait_p99_us = 0;       ///< tail queue wait, sliding window
  double wait_p999_us = 0;      ///< extreme-tail queue wait, sliding window
};

class DynamicBatcher {
 public:
  /// Completion callback: `bits` is the request's readout (network-format
  /// patterns), valid only for the duration of the call — copy to keep. On
  /// any status other than kOk, `bits` is empty.
  using Callback = std::function<void(Status, std::span<const std::uint32_t>)>;

  /// Sliding-window length for the wait-time percentiles in stats().
  static constexpr std::size_t kWaitWindow = 4096;

  DynamicBatcher(std::shared_ptr<const runtime::Model> model, BatcherOptions opts = {});
  ~DynamicBatcher();

  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  const runtime::Model& model() const { return *model_; }
  const BatcherOptions& options() const { return opts_; }

  /// Flush alignment: the model's preferred kernel tile. A carve that
  /// leaves rows queued behind it is trimmed to a multiple of this, so
  /// backlog carves hand the register-blocked kernels whole sample tiles (a
  /// ragged tail re-reads every weight plane for a fraction of a tile). A
  /// carve that empties the queue is never trimmed, so a lone request leaves
  /// at once regardless of alignment (tests/runtime/blocked_session_test.cpp).
  std::size_t tile() const { return tile_; }

  /// A request's absolute shed deadline (steady clock); nullopt = none.
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;

  /// Admit one sample: `x` holds model().input_dim() input-format bit
  /// patterns, read as runtime::PatternView reads them (a caller holding
  /// doubles encodes them with num::Encoder). Any other size throws
  /// std::invalid_argument — dimension checking of untrusted input belongs
  /// to the caller, e.g. the Server, which maps it to kBadRequest. The
  /// sample is copied into the staging buffer; `cb` fires exactly once.
  /// Rejections (queue full, shutdown) invoke `cb` inline before submit
  /// returns — as does an already-expired `deadline`, which completes with
  /// kDeadlineExceeded without ever occupying queue space.
  void submit(std::span<const std::uint32_t> x, Callback cb, Deadline deadline = std::nullopt);

  /// Future-flavoured submit for callers without a completion loop.
  std::future<Reply> submit(std::span<const std::uint32_t> x);

  /// Stop admitting (further submits complete with kShutdown), flush every
  /// already-accepted request, and join the dispatchers. Idempotent; the
  /// destructor calls it.
  void shutdown();

  BatcherStats stats() const;

  /// Append the raw wait-window samples (microseconds, unsorted) to `out`.
  /// Lets an aggregator (ModelRegistry::stats over per-shard lanes) compute
  /// percentiles over the union of several batchers' windows instead of
  /// averaging already-computed percentiles, which would be meaningless.
  void wait_samples(std::vector<double>& out) const;

 private:
  struct Pending {
    Callback cb;
    std::chrono::steady_clock::time_point enqueued;
    // Shed bound; time_point::max() = no deadline (cheaper to compare than
    // an optional in the carve loop).
    std::chrono::steady_clock::time_point deadline;
  };

  void dispatcher_main(std::size_t index);

  std::shared_ptr<const runtime::Model> model_;
  const BatcherOptions opts_;
  const std::size_t tile_;  // resolved flush alignment, >= 1

  mutable std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;
  // The admission queue: row i of pending_x_ belongs to pending_[i]. One
  // contiguous row-major buffer of patterns so a carve is memcpy +
  // PatternView, never a per-row gather. Carves advance head_ instead of
  // erasing from the front (O(take) per flush, not O(backlog)); the buffers
  // compact when the queue empties or the dead prefix exceeds
  // queue_capacity rows, so memory stays bounded by ~2x capacity.
  std::vector<std::uint32_t> pending_x_;
  std::vector<Pending> pending_;
  std::size_t head_ = 0;  // rows of pending_ already carved
  std::size_t depth_locked() const { return pending_.size() - head_; }

  // Stats (guarded by m_).
  std::uint64_t accepted_ = 0, rejected_ = 0, completed_ = 0, batches_ = 0;
  std::uint64_t deadline_exceeded_ = 0;
  std::size_t in_flight_ = 0;
  std::vector<double> wait_window_;  // ring buffer of recent waits (us)
  std::size_t wait_next_ = 0;

  std::vector<std::thread> dispatchers_;
};

}  // namespace dp::serve
