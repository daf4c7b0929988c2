#include "serve/transport.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dp::serve {

namespace {

[[noreturn]] void throw_errno(const char* op) {
  throw TransportError(std::string("serve transport: ") + op + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  const int one = 1;
  // Best-effort: not fatal if the kernel refuses (e.g. not a TCP socket).
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

FdStream::~FdStream() { close(); }

FdStream& FdStream::operator=(FdStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void FdStream::write_all(const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    // MSG_NOSIGNAL: a vanished peer must become an exception on the writing
    // thread (a batcher dispatcher), never a process-wide SIGPIPE.
    const ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO expired: the peer has stopped draining its socket.
        throw TransportError("serve transport: send timed out (peer not reading)");
      }
      throw_errno("send");
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

void FdStream::set_nonblocking(bool on) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, want) != 0) throw_errno("fcntl(F_SETFL)");
}

ssize_t FdStream::read_some(void* data, std::size_t len) {
  for (;;) {
    const ssize_t n = ::recv(fd_, data, len, 0);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    // A peer that vanished mid-conversation (ECONNRESET and friends) is a
    // transport error; the event loop maps it to "drop this connection".
    throw_errno("recv");
  }
}

ssize_t FdStream::write_some(const void* data, std::size_t len) {
  for (;;) {
    const ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    throw_errno("send");
  }
}

void FdStream::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void FdStream::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void FdStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::pair<FdStream, FdStream> local_stream_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) throw_errno("socketpair");
  return {FdStream(fds[0]), FdStream(fds[1])};
}

// ---------------------------------------------------------------------------
// LocalTransport
// ---------------------------------------------------------------------------

LocalTransport::LocalTransport() {
  auto [r, w] = local_stream_pair();
  signal_r_ = std::move(r);
  signal_w_ = std::move(w);
  signal_r_.set_nonblocking(true);
  signal_w_.set_nonblocking(true);
}

LocalTransport::~LocalTransport() = default;

void LocalTransport::push(FdStream conn) {
  {
    std::lock_guard<std::mutex> lk(m_);
    pending_.push_back(std::move(conn));
  }
  // One readiness byte per queued connection; accept() consumes it. If the
  // signal buffer is somehow full the loop is awake anyway — never block.
  const char byte = 1;
  (void)signal_w_.write_some(&byte, 1);
}

FdStream LocalTransport::accept() {
  char byte = 0;
  (void)signal_r_.read_some(&byte, 1);
  std::lock_guard<std::mutex> lk(m_);
  if (pending_.empty()) return FdStream();
  FdStream conn = std::move(pending_.front());
  pending_.pop_front();
  return conn;
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

TcpTransport::TcpTransport(std::uint16_t port, int backlog, bool reuseport) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  listen_ = FdStream(fd);
  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }
  if (reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    throw_errno("setsockopt(SO_REUSEPORT)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind");
  }
  if (::listen(fd, backlog) != 0) throw_errno("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  listen_.set_nonblocking(true);
}

FdStream TcpTransport::accept() {
  for (;;) {
    const int fd = ::accept(listen_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return FdStream(fd);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      return FdStream();  // nothing (or a ghost) pending right now
    }
    // Resource exhaustion (EMFILE/ENFILE/...): the pending connection stays
    // in the backlog keeping the listener readable, so "return nothing"
    // would spin a level-triggered poll loop at 100% CPU. Throw instead and
    // let the caller back the listener out of its poll set for a while.
    throw_errno("accept");
  }
}

FdStream tcp_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  FdStream stream(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINTR && errno != EISCONN) throw_errno("connect");
    // A signal interrupted connect(): POSIX says the attempt keeps
    // completing asynchronously and re-calling connect() yields EALREADY,
    // not progress. Wait for writability and read the real outcome from
    // SO_ERROR instead.
    pollfd p{fd, POLLOUT, 0};
    while (::poll(&p, 1, -1) < 0) {
      if (errno != EINTR) throw_errno("poll(connect)");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      throw_errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      errno = err;
      throw_errno("connect");
    }
  }
  set_nodelay(fd);
  return stream;
}

}  // namespace dp::serve
