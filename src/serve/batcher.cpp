#include "serve/batcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/percentile.hpp"

namespace dp::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::shared_ptr<const runtime::Model> require_model(
    std::shared_ptr<const runtime::Model> model) {
  if (!model) throw std::invalid_argument("serve::DynamicBatcher: null model");
  return model;
}

BatcherOptions validate(BatcherOptions opts) {
  if (opts.max_batch == 0) {
    throw std::invalid_argument("serve::DynamicBatcher: max_batch must be >= 1");
  }
  if (opts.queue_capacity == 0) {
    throw std::invalid_argument("serve::DynamicBatcher: queue_capacity must be >= 1");
  }
  if (opts.dispatchers == 0) {
    throw std::invalid_argument("serve::DynamicBatcher: dispatchers must be >= 1");
  }
  return opts;
}

}  // namespace

DynamicBatcher::DynamicBatcher(std::shared_ptr<const runtime::Model> model,
                               BatcherOptions opts)
    : model_(require_model(std::move(model))),
      opts_(validate(opts)),
      tile_(std::max<std::size_t>(1, model_->preferred_tile())) {
  pending_x_.reserve(opts_.queue_capacity * model_->input_dim());
  pending_.reserve(opts_.queue_capacity);
  wait_window_.reserve(kWaitWindow);
  dispatchers_.reserve(opts_.dispatchers);
  for (std::size_t i = 0; i < opts_.dispatchers; ++i) {
    dispatchers_.emplace_back([this, i] { dispatcher_main(i); });
  }
}

DynamicBatcher::~DynamicBatcher() { shutdown(); }

void DynamicBatcher::submit(std::span<const double> x, Callback cb, Deadline deadline) {
  if (x.size() != model_->input_dim()) {
    throw std::invalid_argument("serve::DynamicBatcher: sample size != model input_dim");
  }
  const Clock::time_point shed_at = deadline.value_or(Clock::time_point::max());
  {
    std::unique_lock<std::mutex> lk(m_);
    if (stop_) {
      ++rejected_;
      lk.unlock();
      cb(Status::kShutdown, {});
      return;
    }
    const Clock::time_point now = Clock::now();
    if (shed_at <= now) {
      // Dead on arrival (the client's budget was already spent crossing the
      // wire): complete inline, never occupy queue space.
      ++deadline_exceeded_;
      lk.unlock();
      cb(Status::kDeadlineExceeded, {});
      return;
    }
    if (depth_locked() >= opts_.queue_capacity) {
      ++rejected_;
      lk.unlock();
      cb(Status::kQueueFull, {});
      return;
    }
    pending_x_.insert(pending_x_.end(), x.begin(), x.end());
    pending_.push_back({std::move(cb), now, shed_at});
    ++accepted_;
  }
  cv_.notify_one();
}

std::future<Reply> DynamicBatcher::submit(std::span<const double> x) {
  auto promise = std::make_shared<std::promise<Reply>>();
  std::future<Reply> fut = promise->get_future();
  submit(x, [promise](Status s, std::span<const std::uint32_t> bits) {
    promise->set_value(Reply{s, {bits.begin(), bits.end()}});
  });
  return fut;
}

void DynamicBatcher::shutdown() {
  // Claim the dispatcher threads under the lock: exactly one caller joins
  // them even if shutdown() is invoked from several threads at once.
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
    to_join.swap(dispatchers_);
  }
  cv_.notify_all();
  for (std::thread& t : to_join) t.join();
}

BatcherStats DynamicBatcher::stats() const {
  std::vector<double> window;
  BatcherStats s;
  {
    std::lock_guard<std::mutex> lk(m_);
    s.accepted = accepted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.deadline_exceeded = deadline_exceeded_;
    s.batches = batches_;
    s.queue_depth = depth_locked();
    s.in_flight = in_flight_;
    s.mean_occupancy =
        batches_ == 0 ? 0 : static_cast<double>(completed_) / static_cast<double>(batches_);
    window = wait_window_;
  }
  std::sort(window.begin(), window.end());
  s.wait_p50_us = core::percentile(window, 50);
  s.wait_p99_us = core::percentile(window, 99);
  s.wait_p999_us = core::percentile(window, 99.9);
  return s;
}

void DynamicBatcher::wait_samples(std::vector<double>& out) const {
  std::lock_guard<std::mutex> lk(m_);
  out.insert(out.end(), wait_window_.begin(), wait_window_.end());
}

void DynamicBatcher::dispatcher_main(std::size_t index) {
  // Each dispatcher owns a private Session: per-slot Scratch state is never
  // shared across dispatchers, and the Model is immutable, so concurrent
  // micro-batches need no locking past the carve. Spreading an index over
  // nothing: every Session is identical; the index only names the thread.
  (void)index;
  runtime::Session session(model_, {opts_.session_threads, opts_.shared_pool});
  const std::size_t dim = model_->input_dim();
  const std::size_t out_dim = model_->output_dim();

  std::vector<double> batch_x;      // carved live rows, contiguous row-major
  std::vector<Pending> batch_meta;  // their callbacks, same order
  std::vector<Pending> shed_meta;   // carved rows whose deadline has passed
  std::vector<std::uint32_t> out;   // flush output, reused across flushes

  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    cv_.wait(lk, [&] { return stop_ || depth_locked() > 0; });
    if (depth_locked() == 0) return;  // stopped and drained: every accepted row was flushed
    // Work-conserving carve: an idle dispatcher takes whatever is pending,
    // up to max_batch, at once — it never lingers for company. Batches form
    // only while every dispatcher is busy, which is when they pay. The carve
    // holds the lock (memcpy of doubles + callback moves; the inference runs
    // unlocked). Rows whose shed deadline has passed are split off here —
    // they never reach the Session — and the carve only advances head_;
    // compaction below is amortized O(1)/row.
    std::size_t take = std::min(depth_locked(), opts_.max_batch);
    if (take > tile_ && take < depth_locked()) {
      // Rows stay queued behind this carve (a backlog past max_batch): trim
      // to whole kernel tiles so the blocked matmul never sees a ragged tail
      // mid-burst. Trimming only defers TAIL rows to the next carve, and a
      // carve that empties the queue is never trimmed.
      take -= take % tile_;
    }
    const auto now = Clock::now();
    batch_x.clear();
    batch_meta.clear();
    shed_meta.clear();
    for (std::size_t i = 0; i < take; ++i) {
      Pending& p = pending_[head_ + i];
      if (p.deadline <= now) {
        shed_meta.push_back(std::move(p));
        continue;
      }
      const auto row = pending_x_.begin() + static_cast<std::ptrdiff_t>((head_ + i) * dim);
      batch_x.insert(batch_x.end(), row, row + static_cast<std::ptrdiff_t>(dim));
      batch_meta.push_back(std::move(p));
    }
    head_ += take;
    if (head_ == pending_.size()) {
      pending_.clear();
      pending_x_.clear();
      head_ = 0;
    } else if (head_ >= opts_.queue_capacity) {
      pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(head_));
      pending_x_.erase(pending_x_.begin(),
                       pending_x_.begin() + static_cast<std::ptrdiff_t>(head_ * dim));
      head_ = 0;
    }
    for (const Pending& p : batch_meta) {
      const std::chrono::duration<double, std::micro> wait = now - p.enqueued;
      if (wait_window_.size() < kWaitWindow) {
        wait_window_.push_back(wait.count());
      } else {
        wait_window_[wait_next_] = wait.count();
      }
      wait_next_ = (wait_next_ + 1) % kWaitWindow;
    }
    const std::size_t live = batch_meta.size();
    deadline_exceeded_ += shed_meta.size();
    if (live > 0) {
      ++batches_;
      ++in_flight_;
    }
    const bool more = depth_locked() > 0;
    lk.unlock();
    // Rows still pending (a burst larger than max_batch): hand them to a
    // sibling dispatcher so micro-batches overlap instead of queueing.
    if (more) cv_.notify_one();

    // Shed requests first: their callers' budgets are already gone, and the
    // answer must not queue behind a whole batch's inference.
    for (Pending& p : shed_meta) p.cb(Status::kDeadlineExceeded, {});
    shed_meta.clear();
    if (live == 0) {
      lk.lock();
      continue;
    }

    out.resize(live * out_dim);
    Status status = Status::kOk;
    try {
      session.forward_bits_into(runtime::BatchView(batch_x, dim), out);
    } catch (...) {
      // A model/session failure must not strand the requests; surface it as
      // a per-request error status. (With dimensions validated at submit,
      // this path is unreachable in practice.)
      status = Status::kBadRequest;
    }
    // Account completion BEFORE the callbacks fire: anyone synchronized by a
    // callback/future (tests, a client that saw its response) must find the
    // counters already consistent in stats().
    lk.lock();
    completed_ += live;
    --in_flight_;
    lk.unlock();
    for (std::size_t i = 0; i < live; ++i) {
      if (status == Status::kOk) {
        batch_meta[i].cb(status,
                         std::span<const std::uint32_t>(out).subspan(i * out_dim, out_dim));
      } else {
        batch_meta[i].cb(status, {});
      }
    }
    batch_meta.clear();
    lk.lock();
  }
}

}  // namespace dp::serve
