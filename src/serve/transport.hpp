#pragma once
// Byte-stream transports for the serve subsystem. Everything above this
// layer (protocol framing, batching, the poll loop) sees only ordered,
// reliable byte streams and pollable file descriptors, so the same Server
// speaks over both concrete transports:
//
//  * LocalTransport — a connected AF_UNIX socketpair per connection, pushed
//    into the server from the same process (Server::connect()). No network
//    access, which is what lets CI exercise the full stack.
//  * TcpTransport — a real TCP listener on 127.0.0.1 (port 0 = ephemeral,
//    bound port readable afterwards), accepting remote clients.
//
// Both implement the Transport interface: a pollable readiness fd that
// becomes readable when accept() would yield a connection, so one poll(2)
// set drives any mix of transports.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <sys/types.h>
#include <utility>

namespace dp::serve {

/// Error from the OS layer (socket/read/write failure, peer gone mid-frame).
/// Distinct from ProtocolError, which means the bytes arrived but were not a
/// valid frame.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what) : std::runtime_error(what) {}
};

/// Owning, move-only wrapper of one end of a connected stream socket.
/// Blocking semantics by default; writes never raise SIGPIPE (a dead peer
/// surfaces as a TransportError instead, which matters because responses are
/// written from batcher dispatcher threads).
class FdStream {
 public:
  FdStream() = default;
  explicit FdStream(int fd) : fd_(fd) {}
  ~FdStream();

  FdStream(FdStream&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  FdStream& operator=(FdStream&& other) noexcept;
  FdStream(const FdStream&) = delete;
  FdStream& operator=(const FdStream&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Write the whole buffer (looping over partial writes / EINTR). Throws
  /// TransportError on failure, including a closed peer.
  void write_all(const void* data, std::size_t len);

  // --- Non-blocking operations (the poll-loop side) -------------------------
  // Event-loop connections are switched to non-blocking mode once and then
  // driven purely by readiness: these calls never park a thread. On a
  // blocking fd (Client, test relays) read_some parks until bytes or EOF.

  /// O_NONBLOCK on or off. Throws TransportError if the fcntl fails.
  void set_nonblocking(bool on);

  /// Read whatever is available, up to `len` bytes. Returns the byte count,
  /// 0 on end-of-stream, or -1 if the socket has nothing right now (EAGAIN).
  /// Throws TransportError on any real error (including a reset peer).
  ssize_t read_some(void* data, std::size_t len);

  /// Write as much as the socket buffer takes, up to `len` bytes. Returns
  /// the byte count or -1 if the buffer is full right now (EAGAIN). Throws
  /// TransportError on any real error (including a vanished peer).
  ssize_t write_some(const void* data, std::size_t len);

  /// Half-close the write side: the peer reads end-of-stream once buffered
  /// data drains. Used for orderly connection teardown.
  void shutdown_write();

  /// Close both directions without closing the fd owner relationship;
  /// unblocks a peer (or our own thread) parked in a read.
  void shutdown_both();

  void close();

 private:
  int fd_ = -1;
};

/// A connected pair of local stream sockets (AF_UNIX SOCK_STREAM): bytes
/// written to one end are read from the other, in order, with no framing of
/// its own. Throws TransportError if the OS refuses.
std::pair<FdStream, FdStream> local_stream_pair();

/// A source of inbound connections the server event loop can poll. One
/// readiness fd per transport joins the poll set; when it reports readable,
/// accept() is drained until it returns an invalid FdStream.
class Transport {
 public:
  virtual ~Transport() = default;
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Fd that polls readable when accept() has a connection to yield.
  virtual int readiness_fd() const = 0;

  /// Take one pending connection, or an invalid FdStream when there is none
  /// (level-triggered poll makes spurious calls harmless). Never blocks.
  /// Throws TransportError on resource exhaustion (e.g. EMFILE) — the
  /// backlog keeps the readiness fd readable in that state, so the caller
  /// must back off instead of re-polling immediately.
  virtual FdStream accept() = 0;
};

/// The in-process transport: Server-side ends of socketpairs are pushed in
/// via push(), queued, and handed to the event loop through the Transport
/// interface. A self-pipe is the readiness signal (one byte per queued
/// connection), so the push is visible to a thread parked in poll(2).
class LocalTransport : public Transport {
 public:
  LocalTransport();
  ~LocalTransport() override;

  int readiness_fd() const override { return signal_r_.fd(); }
  FdStream accept() override;

  /// Queue one server-side connection end and wake the poll loop.
  void push(FdStream conn);

 private:
  FdStream signal_r_, signal_w_;  // self-pipe (really a socketpair, same deal)
  std::mutex m_;
  std::deque<FdStream> pending_;
};

/// A real TCP listener on 127.0.0.1. Construction binds and listens (port 0
/// picks an ephemeral port — read it back with port()); accept() yields
/// connected, Nagle-disabled streams. Loopback-only by design: this server
/// has no authentication story, so it must not listen on routable
/// interfaces.
class TcpTransport : public Transport {
 public:
  /// `reuseport` sets SO_REUSEPORT before bind, letting N listeners share
  /// one port with the kernel hashing incoming connections across them —
  /// the sharded server's accept path (one listener per shard, no accept
  /// lock, no thundering herd). Every listener on the port must set it.
  explicit TcpTransport(std::uint16_t port, int backlog = 128, bool reuseport = false);

  int readiness_fd() const override { return listen_.fd(); }
  FdStream accept() override;

  /// The port actually bound (resolves an ephemeral request).
  std::uint16_t port() const { return port_; }

 private:
  FdStream listen_;
  std::uint16_t port_ = 0;
};

/// Client-side blocking connect to a TcpTransport on this host. Disables
/// Nagle (the protocol is small request/response frames; coalescing them
/// behind delayed ACKs would serialize round trips). Throws TransportError
/// if the connection is refused.
FdStream tcp_connect(std::uint16_t port);

}  // namespace dp::serve
