#include "serve/fault_injection.hpp"

#include <algorithm>
#include <random>
#include <thread>
#include <utility>

namespace dp::serve {

/// One spliced connection: the relay's end of the caller-facing socketpair,
/// the real stream, and the two pump threads (one per direction). The pumps
/// only ever shutdown() the fds; close happens in ~Relay after both joined,
/// so a pump never races a close of an fd it is blocked on.
struct FaultInjector::Relay {
  FdStream outer;  // relay side of the socketpair handed to the caller
  FdStream inner;  // the real peer stream
  std::thread c2i, i2c;
};

FaultInjector::FaultInjector(FaultProfile profile) : profile_(std::move(profile)) {}

FaultInjector::~FaultInjector() {
  std::vector<std::unique_ptr<Relay>> relays;
  {
    std::lock_guard<std::mutex> lk(m_);
    relays.swap(relays_);
  }
  // Sever first, join second: a pump blocked in recv() on either fd wakes
  // with EOF/reset the moment its socket is shut down.
  for (const auto& r : relays) {
    r->outer.shutdown_both();
    r->inner.shutdown_both();
  }
  for (const auto& r : relays) {
    if (r->c2i.joinable()) r->c2i.join();
    if (r->i2c.joinable()) r->i2c.join();
  }
}

FdStream FaultInjector::wrap(FdStream inner) {
  // The pumps use blocking I/O; un-set any non-blocking mode the stream's
  // previous owner left on it.
  inner.set_nonblocking(false);
  auto [caller_end, relay_end] = local_stream_pair();
  auto relay = std::make_unique<Relay>();
  relay->outer = std::move(relay_end);
  relay->inner = std::move(inner);
  Relay* r = relay.get();
  std::uint64_t base = 0;
  {
    std::lock_guard<std::mutex> lk(m_);
    // Two RNG streams per connection (one per direction), disjoint across
    // connections, derived only from the profile seed: a failing seed
    // replays the exact same fault schedule.
    base = profile_.seed * 0x9E3779B97F4A7C15ull + (++next_conn_) * 2;
    relays_.push_back(std::move(relay));
  }
  r->c2i = std::thread([this, r, base] { pump(*r, true, base); });
  r->i2c = std::thread([this, r, base] { pump(*r, false, base + 1); });
  return std::move(caller_end);
}

FdStream FaultInjector::connect(std::uint16_t port) { return wrap(tcp_connect(port)); }

void FaultInjector::pump(Relay& relay, bool client_to_inner, std::uint64_t rng_seed) {
  FdStream& src = client_to_inner ? relay.outer : relay.inner;
  FdStream& dst = client_to_inner ? relay.inner : relay.outer;
  std::mt19937_64 rng(rng_seed);
  const std::size_t max_slice = std::max<std::size_t>(1, profile_.max_slice);
  std::uniform_int_distribution<std::size_t> slice(1, max_slice);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<std::uint8_t> buf(max_slice);
  for (;;) {
    // Short slices on purpose: the peer sees frame boundaries that never
    // line up with read boundaries, which is what flushes out partial-read
    // and partial-write handling bugs.
    const std::size_t want = slice(rng);
    ssize_t n = 0;
    try {
      n = src.read_some(buf.data(), want);
    } catch (const TransportError&) {
      break;  // reset under us: sever the whole relay below
    }
    if (n == 0) {
      // Clean half-close: propagate it, leave the other direction flowing.
      dst.shutdown_write();
      return;
    }
    if (n < 0) continue;  // spurious wakeup on a blocking fd; retry
    if (profile_.reset_probability > 0 && coin(rng) < profile_.reset_probability) {
      break;  // drop these bytes on the floor and kill the connection
    }
    if (profile_.delay_probability > 0 && coin(rng) < profile_.delay_probability &&
        profile_.max_delay.count() > 0) {
      std::uniform_int_distribution<long long> d(1, profile_.max_delay.count());
      std::this_thread::sleep_for(std::chrono::microseconds(d(rng)));
    }
    try {
      dst.write_all(buf.data(), static_cast<std::size_t>(n));
    } catch (const TransportError&) {
      break;  // receiver gone: sever the whole relay below
    }
  }
  // Hard stop (reset fault or a dead peer): both directions die at once,
  // exactly like a RST — shutdown() only, never close (see Relay).
  relay.outer.shutdown_both();
  relay.inner.shutdown_both();
}

}  // namespace dp::serve
