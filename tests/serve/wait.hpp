#pragma once
// Time-bounded waits shared by the serve suites: every wait on another
// thread's progress polls against a deadline, never a loop count, so a slow
// or loaded host stretches the wait instead of failing it.

#include <chrono>
#include <thread>

#include "serve/server.hpp"

namespace dp::serve {

/// Poll `done` every millisecond until it holds or `timeout` passes; returns
/// its final value, so the caller can ASSERT that the target was reached.
template <typename Pred>
bool wait_until(Pred done, std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return done();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Poll the server's counters until `done` holds or `timeout` passes, and
/// return the last snapshot.
template <typename Pred>
ServerStats wait_for_stats(const Server& server, Pred done,
                           std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
  ServerStats stats = server.stats();
  wait_until(
      [&] {
        stats = server.stats();
        return done(stats);
      },
      timeout);
  return stats;
}

}  // namespace dp::serve
