#pragma once
// serve::FaultInjector — deterministic, seeded fault injection for byte
// streams, the test-only chaos harness behind tests/serve/chaos_test.cpp.
//
// FdStream is a concrete fd wrapper, so faults are injected by PROXY rather
// than by subclassing: wrap(inner) splices a socketpair relay between the
// caller and the real stream. Two relay threads (one per direction) pump
// bytes across in short random slices, optionally sleeping between slices
// and optionally resetting the whole connection mid-stream. The caller keeps
// its normal FdStream API — poll, read_some, write_all all behave — while
// every byte of the conversation crosses the injector:
//
//     caller <-> [socketpair] <-> relay threads <-> inner (real peer)
//
// What the peer observes: short reads and short writes (slicing), latency
// spikes (delays) and connection resets at arbitrary byte boundaries
// (resets). What it must never observe: reordered, duplicated or corrupted bytes — the relay
// forwards verbatim, so a server bug surfaced under chaos is a real bug, not
// an artifact of the harness. Because the relay is symmetric, splicing it on
// the dialing side exposes the server's poll loop to the same sliced,
// delayed and reset byte stream as the client.
//
// Determinism: every per-connection RNG is seeded from FaultProfile::seed
// and a connection counter, never from time or global state, so a failing
// seed replays exactly. Thread-safety: wrap()/connect() are safe from any
// thread; the destructor severs every relay and joins its threads.

#include <cstddef>
#include <cstdint>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/transport.hpp"

namespace dp::serve {

/// Knobs of one injector. Probabilities are per-slice, in [0, 1]. The default profile is a pure
/// pass-through relay that only slices — already enough to surface
/// partial-read/partial-write bugs.
struct FaultProfile {
  /// Root of every per-connection RNG; same seed = same fault schedule.
  std::uint64_t seed = 1;
  /// Bytes are relayed in random slices of 1..max_slice bytes, so frame
  /// boundaries never align with read boundaries.
  std::size_t max_slice = 64;
  /// Probability that a slice is preceded by a sleep of 1..max_delay.
  double delay_probability = 0.0;
  std::chrono::microseconds max_delay{0};
  /// Probability that a slice triggers a full connection reset instead of
  /// being forwarded (both directions die, like a RST mid-frame).
  double reset_probability = 0.0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultProfile profile);
  /// Severs every live relay (both fds of each) and joins the relay threads.
  /// Wrapped streams still held by callers just observe EOF/reset.
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Splice a relay in front of `inner` and return the caller's new end.
  /// The relay owns `inner` from here on.
  FdStream wrap(FdStream inner);

  /// tcp_connect(port) through the injector: wrap() of the new connection.
  FdStream connect(std::uint16_t port);

 private:
  struct Relay;
  void pump(Relay& relay, bool client_to_inner, std::uint64_t rng_seed);

  const FaultProfile profile_;
  std::mutex m_;
  std::uint64_t next_conn_ = 0;  // per-connection seed offset
  std::vector<std::unique_ptr<Relay>> relays_;
};

}  // namespace dp::serve
