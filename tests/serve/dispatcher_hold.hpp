#pragma once
// Parking rows in a work-conserving DynamicBatcher without racing the clock.
//
// An idle dispatcher carves whatever is queued at once, so a test that needs
// rows to stay queued (to watch them coalesce, be shed, or be drained) has to
// keep the dispatcher busy. Batcher callbacks run on the dispatcher thread,
// so a row whose callback blocks on a gate holds that dispatcher until the
// gate opens, and every row submitted meanwhile queues behind it — an exact
// state, not a timing window.

#include <algorithm>
#include <chrono>
#include <future>
#include <latch>
#include <memory>
#include <span>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/wait.hpp"

namespace dp::serve {

/// Holds one dispatcher of `batcher` from construction until release() (or
/// destruction) with a row of input `x`, which also serves as the input of
/// shutdown_begun()'s probes. Declare it AFTER the batcher or server it holds, so that it
/// is released before their shutdown joins the dispatcher.
class DispatcherHold {
 public:
  DispatcherHold(DynamicBatcher& batcher, std::span<const double> x)
      : batcher_(&batcher),
        x_(x.begin(), x.end()),
        state_(std::make_shared<State>()),
        running_(state_->running.get_future()) {
    batcher.submit(x, [s = state_](Status status, std::span<const std::uint32_t> bits) {
      s->reply = Reply{status, {bits.begin(), bits.end()}};
      s->running.set_value();
      // Only a served row blocks: a rejection completes inline on the
      // submitting thread, which must not be parked.
      if (status == Status::kOk) s->gate.wait();
    });
  }
  ~DispatcherHold() { release(); }
  DispatcherHold(const DispatcherHold&) = delete;
  DispatcherHold& operator=(const DispatcherHold&) = delete;

  /// Whether a dispatcher is now parked in the held row's callback; waits
  /// for it, bounded so a broken batcher fails the test instead of hanging.
  bool held(std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
    return running_.wait_for(timeout) == std::future_status::ready &&
           state_->reply.status == Status::kOk;
  }

  /// The held row's own reply; read it only after held() returned true.
  const Reply& reply() const { return state_->reply; }

  /// Open the gate: the dispatcher returns and carves what queued behind
  /// the held row. Idempotent.
  void release() {
    if (!open_) state_->gate.count_down();
    open_ = true;
  }

  bool released() const { return open_; }

  /// Whether the held batcher's shutdown has begun. Probes with a submit of
  /// the held row's input under an already-expired deadline: such a submit
  /// completes inline and never queues, with kShutdown once shutdown() has
  /// begun and kDeadlineExceeded before. Each probe counts in the batcher's
  /// stats: one deadline_exceeded before the shutdown, one rejected after.
  bool shutdown_begun() {
    Status seen = Status::kOk;
    batcher_->submit(
        x_, [&seen](Status s, std::span<const std::uint32_t>) { seen = s; },
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
    return seen == Status::kShutdown;
  }

 private:
  struct State {
    std::latch gate{1};
    std::promise<void> running;
    Reply reply;
  };
  DynamicBatcher* batcher_;
  std::vector<double> x_;
  // Shared with the callback, so the gate outlives whichever side ends last.
  std::shared_ptr<State> state_;
  std::future<void> running_;
  bool open_ = false;
};

/// Release each of `holds` once its own batcher's shutdown has begun, so the
/// rows queued behind it leave through the shutdown drain rather than an
/// ordinary carve. Every round probes every hold still closed, so the order
/// in which the batchers shut down does not matter: a server or registry
/// stopping several of them drains one after another, and waiting on the
/// holds one at a time in any other order would stall it. Returns whether every shutdown
/// was seen within the bounded wait; every hold is released either way.
/// The probes count in each batcher's deadline_exceeded and rejected (see
/// DispatcherHold::shutdown_begun): a test that asserts those counters reads
/// them before calling this.
inline bool release_into_drain(std::vector<DispatcherHold*> holds) {
  const bool all_draining = wait_until([&] {
    for (DispatcherHold* hold : holds) {
      if (!hold->released() && hold->shutdown_begun()) hold->release();
    }
    return std::all_of(holds.begin(), holds.end(),
                       [](const DispatcherHold* hold) { return hold->released(); });
  });
  for (DispatcherHold* hold : holds) hold->release();
  return all_draining;
}

inline bool release_into_drain(DispatcherHold& hold) { return release_into_drain({&hold}); }

}  // namespace dp::serve
